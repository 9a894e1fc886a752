package sched_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

func TestShrinkSuccessRateDynamics(t *testing.T) {
	s := sched.NewShrink(sched.DefaultShrinkConfig())
	ctx := &stm.ThreadCtx{ID: 0}
	s.RegisterThread(ctx)
	if got := s.SuccessRate(ctx); got != 1 {
		t.Fatalf("initial success rate = %f, want 1", got)
	}
	// Aborts halve the rate.
	s.BeforeStart(ctx, 0)
	s.AfterAbort(ctx, stm.WriteSet{})
	if got := s.SuccessRate(ctx); got != 0.5 {
		t.Fatalf("after one abort = %f, want 0.5", got)
	}
	s.BeforeStart(ctx, 1)
	s.AfterAbort(ctx, stm.WriteSet{})
	if got := s.SuccessRate(ctx); got != 0.25 {
		t.Fatalf("after two aborts = %f, want 0.25", got)
	}
	// A commit averages toward 1: (0.25 + 1) / 2.
	s.BeforeStart(ctx, 2)
	s.AfterCommit(ctx, stm.WriteSet{})
	if got := s.SuccessRate(ctx); got != 0.625 {
		t.Fatalf("after commit = %f, want 0.625", got)
	}
}

func TestShrinkSerializesOnPredictedConflict(t *testing.T) {
	cfg := sched.DefaultShrinkConfig()
	cfg.DisableAffinity = true // make the read-set check deterministic
	s := sched.NewShrink(cfg)

	victim := &stm.ThreadCtx{ID: 0}
	s.RegisterThread(victim)

	// Drive the victim's success rate below the threshold.
	for i := 0; i < 3; i++ {
		s.BeforeStart(victim, i)
		s.AfterAbort(victim, stm.WriteSet{})
	}
	if got := s.SuccessRate(victim); got >= 0.5 {
		t.Fatalf("success rate = %f, want < 0.5", got)
	}

	// Give the victim a predicted write set containing v, and lock v as
	// another thread: the next BeforeStart must serialize.
	v := stm.NewT(0).Word()
	s.BeforeStart(victim, 3)
	s.AfterAbort(victim, sched.WriteSetOf(v))
	if !v.TryLock(v.Meta(), 7) {
		t.Fatal("lock setup failed")
	}
	done := make(chan struct{})
	go func() {
		s.BeforeStart(victim, 0)
		close(done)
	}()
	<-done
	if got := victim.Serializations.Load(); got != 1 {
		t.Fatalf("serializations = %d, want 1", got)
	}
	if got := s.WaitCount(); got != 1 {
		t.Fatalf("wait count = %d, want 1", got)
	}
	v.Unlock(1)
	s.AfterCommit(victim, stm.WriteSet{})
	if got := s.WaitCount(); got != 0 {
		t.Fatalf("wait count after release = %d, want 0", got)
	}
}

func TestShrinkNoSerializationWhenHealthy(t *testing.T) {
	cfg := sched.DefaultShrinkConfig()
	cfg.DisableAffinity = true
	s := sched.NewShrink(cfg)
	ctx := &stm.ThreadCtx{ID: 0}
	s.RegisterThread(ctx)
	v := stm.NewT(0).Word()
	if !v.TryLock(v.Meta(), 9) {
		t.Fatal("setup")
	}
	defer v.Unlock(1)
	// Healthy thread (success rate 1): never serializes even with a
	// locked var in a (stale) prediction.
	s.AfterAbort(ctx, sched.WriteSetOf(v))
	// One commit pushes the rate back up before the check.
	s.AfterCommit(ctx, stm.WriteSet{})
	s.BeforeStart(ctx, 0)
	if got := ctx.Serializations.Load(); got != 0 {
		t.Fatalf("healthy thread serialized %d times", got)
	}
	s.AfterCommit(ctx, stm.WriteSet{})
}

func TestShrinkMutualExclusionOfSerializedStarts(t *testing.T) {
	cfg := sched.DefaultShrinkConfig()
	cfg.DisableAffinity = true
	s := sched.NewShrink(cfg)
	v := stm.NewT(0).Word()
	if !v.TryLock(v.Meta(), 99) {
		t.Fatal("setup")
	}
	defer v.Unlock(1)

	const n = 3
	var inCritical, maxInCritical int
	var mu sync.Mutex
	var wg sync.WaitGroup
	ctxs := make([]*stm.ThreadCtx, n)
	for i := 0; i < n; i++ {
		ctx := &stm.ThreadCtx{ID: i}
		ctxs[i] = ctx
		s.RegisterThread(ctx)
		for a := 0; a < 3; a++ {
			s.BeforeStart(ctx, a)
			s.AfterAbort(ctx, sched.WriteSetOf(v))
		}
		wg.Add(1)
		go func(ctx *stm.ThreadCtx) {
			defer wg.Done()
			s.BeforeStart(ctx, 0)
			mu.Lock()
			inCritical++
			if inCritical > maxInCritical {
				maxInCritical = inCritical
			}
			mu.Unlock()
			mu.Lock()
			inCritical--
			mu.Unlock()
			s.AfterCommit(ctx, stm.WriteSet{})
		}(ctx)
	}
	wg.Wait()
	if maxInCritical > 1 {
		t.Fatalf("%d serialized transactions ran concurrently", maxInCritical)
	}
	if got := stm.AggregateStats(ctxs).Serializations; got < n {
		t.Fatalf("serializations = %d, want at least %d", got, n)
	}
}

func TestATSContentionIntensity(t *testing.T) {
	a := sched.NewATS()
	ctx := &stm.ThreadCtx{ID: 0}
	a.RegisterThread(ctx)
	// Repeated aborts push CI toward 1 and trigger queueing. The first
	// three leave CI at 0.578 (0.25, 0.4375, 0.578): the first two starts
	// run free, the third and fourth are over the threshold.
	for i := 0; i < 3; i++ {
		a.BeforeStart(ctx, i)
		a.AfterAbort(ctx, stm.WriteSet{})
	}
	if got := ctx.Serializations.Load(); got != 0 {
		t.Fatalf("serializations = %d before CI crossed the threshold, want 0", got)
	}
	a.BeforeStart(ctx, 3)
	if got := ctx.Serializations.Load(); got != 1 {
		t.Fatalf("serializations = %d after a high-CI start, want 1", got)
	}
	// A queued transaction keeps the queue across its retries: the retry
	// is the same serialized transaction, not a second one.
	a.AfterAbort(ctx, stm.WriteSet{})
	a.BeforeStart(ctx, 4)
	if got := ctx.Serializations.Load(); got != 1 {
		t.Fatalf("serializations = %d after a queued retry, want 1", got)
	}
	a.AfterCommit(ctx, stm.WriteSet{})
	// Commits decay CI back below threshold eventually.
	for i := 0; i < 10; i++ {
		a.BeforeStart(ctx, 0)
		a.AfterCommit(ctx, stm.WriteSet{})
	}
	before := ctx.Serializations.Load()
	a.BeforeStart(ctx, 0)
	a.AfterCommit(ctx, stm.WriteSet{})
	if after := ctx.Serializations.Load(); after != before {
		t.Fatal("ATS serialized a thread whose CI had decayed")
	}
}

func TestPoolSerializesContendedThreads(t *testing.T) {
	p := sched.NewPool()
	ctx := &stm.ThreadCtx{ID: 0}
	p.RegisterThread(ctx)
	p.BeforeStart(ctx, 0)
	if got := ctx.Serializations.Load(); got != 0 {
		t.Fatalf("first start serialized (%d), want 0", got)
	}
	p.AfterAbort(ctx, stm.WriteSet{})
	// Next start: thread faced contention, so Pool serializes it.
	p.BeforeStart(ctx, 1)
	if got := ctx.Serializations.Load(); got != 1 {
		t.Fatalf("serializations = %d after the retry of an abort, want 1", got)
	}
	p.AfterCommit(ctx, stm.WriteSet{})
	// After the commit the thread is uncontended again; this start must
	// neither block nor count.
	p.BeforeStart(ctx, 0)
	p.AfterCommit(ctx, stm.WriteSet{})
	if got := ctx.Serializations.Load(); got != 1 {
		t.Fatalf("serializations = %d after an uncontended start, want 1", got)
	}
}

// TestSchedulersUnderRealLoad runs each scheduler against a genuinely
// contended workload on both engines as an integration smoke test. The
// workload is update-only and every aborted attempt is retried, so Pool,
// which serializes exactly the retries of aborted attempts, must report
// one serialization per abort.
func TestSchedulersUnderRealLoad(t *testing.T) {
	schedulers := map[string]func() stm.Scheduler{
		"shrink": func() stm.Scheduler { return sched.NewShrink(sched.DefaultShrinkConfig()) },
		"ats":    func() stm.Scheduler { return sched.NewATS() },
		"pool":   func() stm.Scheduler { return sched.NewPool() },
	}
	engines := map[string]func(stm.Scheduler) stm.TM{
		"swiss": func(s stm.Scheduler) stm.TM { return swiss.New(swiss.Options{Scheduler: s}) },
		"tiny": func(s stm.Scheduler) stm.TM {
			return tiny.New(tiny.Options{Scheduler: s, Wait: stm.WaitPreemptive})
		},
	}
	for sname, sf := range schedulers {
		for ename, ef := range engines {
			t.Run(sname+"/"+ename, func(t *testing.T) {
				tm := ef(sf())
				counter := stm.NewT(0)
				const threads, iters = 6, 120
				var wg sync.WaitGroup
				for i := 0; i < threads; i++ {
					th := tm.Register(fmt.Sprintf("t%d", i))
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < iters; j++ {
							_ = th.Atomically(func(tx stm.Tx) error {
								n, err := stm.ReadT(tx, counter)
								if err != nil {
									return err
								}
								return stm.WriteT(tx, counter, n+1)
							})
						}
					}()
				}
				wg.Wait()
				th := tm.Register("check")
				_ = th.Atomically(func(tx stm.Tx) error {
					n, err := stm.ReadT(tx, counter)
					if err != nil {
						return err
					}
					if n != threads*iters {
						t.Errorf("counter = %d, want %d", n, threads*iters)
					}
					return nil
				})
				st := tm.Stats()
				if sname == "pool" && st.Serializations != st.Aborts {
					t.Errorf("pool: serializations = %d, aborts = %d, want equal", st.Serializations, st.Aborts)
				}
				if st.Serializations > st.Commits+st.Aborts {
					t.Errorf("serializations = %d exceed the %d attempts", st.Serializations, st.Commits+st.Aborts)
				}
				t.Logf("commits=%d aborts=%d serializations=%d", st.Commits, st.Aborts, st.Serializations)
			})
		}
	}
}
