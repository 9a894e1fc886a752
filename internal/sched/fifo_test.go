package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
)

func TestFifoMutexMutualExclusion(t *testing.T) {
	var f fifoMutex
	var held, maxHeld int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				f.Lock()
				h := atomic.AddInt32(&held, 1)
				for {
					m := atomic.LoadInt32(&maxHeld)
					if h <= m || atomic.CompareAndSwapInt32(&maxHeld, m, h) {
						break
					}
				}
				atomic.AddInt32(&held, -1)
				f.Unlock()
			}
		}()
	}
	wg.Wait()
	if maxHeld > 1 {
		t.Fatalf("%d holders at once", maxHeld)
	}
}

func TestFifoMutexOrdering(t *testing.T) {
	var f fifoMutex
	f.Lock()
	const waiters = 5
	order := make(chan int, waiters)
	ready := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		go func() {
			ready <- struct{}{}
			f.Lock()
			order <- i
			f.Unlock()
		}()
		<-ready
		// Give the goroutine time to reach the queue so arrival order
		// is deterministic.
		for n := 0; n < 1000; n++ {
			f.mu.Lock()
			queued := len(f.queue) > i
			f.mu.Unlock()
			if queued {
				break
			}
		}
	}
	f.Unlock()
	for i := 0; i < waiters; i++ {
		if got := <-order; got != i {
			t.Fatalf("position %d served goroutine %d (not FIFO)", i, got)
		}
	}
}

func TestShrinkAblationFlags(t *testing.T) {
	// DisableWritePrediction: aborted write sets must not become
	// predictions.
	cfg := DefaultShrinkConfig()
	cfg.DisableWritePrediction = true
	cfg.DisableAffinity = true
	s := NewShrink(cfg)
	ctx := &stm.ThreadCtx{ID: 0}
	s.RegisterThread(ctx)
	v := stm.NewT(0).Word()
	if !v.TryLock(v.Meta(), 5) {
		t.Fatal("setup")
	}
	defer v.Unlock(1)
	for i := 0; i < 4; i++ {
		s.BeforeStart(ctx, i)
		s.AfterAbort(ctx, WriteSetOf(v))
	}
	s.BeforeStart(ctx, 0)
	if ctx.Serializations.Load() != 0 {
		t.Fatal("serialized despite write prediction disabled and empty read prediction")
	}
	s.AfterCommit(ctx, stm.WriteSet{})
}

func TestShrinkLazyReadHook(t *testing.T) {
	s := NewShrink(DefaultShrinkConfig())
	ctx := &stm.ThreadCtx{ID: 0}
	s.RegisterThread(ctx)
	if ctx.ReadHook {
		t.Fatal("healthy thread should not track reads (lazy activation)")
	}
	// Two aborts: success rate 0.25 < 0.75 => tracking on.
	s.BeforeStart(ctx, 0)
	s.AfterAbort(ctx, stm.WriteSet{})
	s.BeforeStart(ctx, 1)
	s.AfterAbort(ctx, stm.WriteSet{})
	if !ctx.ReadHook {
		t.Fatal("contended thread must track reads")
	}
	// Recovery: commits push the rate back above the activation band.
	for i := 0; i < 4; i++ {
		s.BeforeStart(ctx, 0)
		s.AfterCommit(ctx, stm.WriteSet{})
	}
	if ctx.ReadHook {
		t.Fatal("recovered thread should stop tracking reads")
	}
}

func TestShrinkEagerReadHook(t *testing.T) {
	cfg := DefaultShrinkConfig()
	cfg.EagerPrediction = true
	s := NewShrink(cfg)
	ctx := &stm.ThreadCtx{ID: 0}
	s.RegisterThread(ctx)
	if !ctx.ReadHook {
		t.Fatal("eager mode must track from the start")
	}
	s.BeforeStart(ctx, 0)
	s.AfterCommit(ctx, stm.WriteSet{})
	if !ctx.ReadHook {
		t.Fatal("eager mode must keep tracking after commits")
	}
}

func TestShrinkAffinityCoin(t *testing.T) {
	// With affinity enabled and waitCount at zero, the read-set check
	// must never run: a thread whose prediction contains a locked var
	// still starts normally as long as its write prediction is empty.
	s := NewShrink(DefaultShrinkConfig())
	ctx := &stm.ThreadCtx{ID: 0}
	s.RegisterThread(ctx)
	st := s.state(ctx)
	v := stm.NewT(0).Word()
	if !v.TryLock(v.Meta(), 3) {
		t.Fatal("setup")
	}
	defer v.Unlock(1)
	// Hand-plant a read prediction and a low success rate.
	st.pred.OnAbort(stm.WriteSet{})
	st.succRate = 0.1
	for i := 0; i < 50; i++ {
		s.BeforeStart(ctx, 0)
		if st.holdsGlobal {
			t.Fatal("serialized with waitCount == 0 and empty write prediction")
		}
	}
}
