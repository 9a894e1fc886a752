package tkv

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestAdmitQueueGrantsInAgeOrder(t *testing.T) {
	q := newAdmitQueue(1, 8)
	if err := q.acquire(); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q.acquire(); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			q.release()
		}()
		// Serialize arrivals so ages are deterministic.
		time.Sleep(20 * time.Millisecond)
	}
	q.release()
	wg.Wait()
	if first := <-order; first != 0 {
		t.Fatalf("younger waiter granted before older (first = %d)", first)
	}
}

func TestAdmitQueueWoundsYoungest(t *testing.T) {
	q := newAdmitQueue(1, 1)
	if err := q.acquire(); err != nil {
		t.Fatal(err)
	}
	older := make(chan error, 1)
	go func() { older <- q.acquire() }()
	time.Sleep(20 * time.Millisecond) // the older waiter is queued

	// The queue holds one waiter at most: this younger arrival overflows
	// it and must be wounded — immediately, with backpressure, while the
	// older waiter stays queued.
	start := time.Now()
	err := q.acquire()
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("youngest overflow arrival: err = %v, want ErrBackpressure", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("wounding blocked instead of failing fast")
	}
	if q.wounded.Load() != 1 {
		t.Fatalf("wounded = %d, want 1", q.wounded.Load())
	}
	select {
	case err := <-older:
		t.Fatalf("older waiter resolved early: %v", err)
	default:
	}
	q.release()
	if err := <-older; err != nil {
		t.Fatalf("older waiter: %v", err)
	}
	q.release()
}

// admitted store: small tick so controller reactions land within test time.
func openAdmitTest(t *testing.T, ac AdmitConfig) *Store {
	t.Helper()
	if ac.Tick == 0 {
		ac.Tick = 5 * time.Millisecond
	}
	st := openTest(t, Config{Shards: 2, Admission: &ac})
	t.Cleanup(st.Close)
	return st
}

// TestAdmissionIdleIsInvisible: a healthy store with admission on behaves
// exactly like one without — no sheds, no routing, reads and writes flow.
func TestAdmissionIdleIsInvisible(t *testing.T) {
	st := openAdmitTest(t, DefaultAdmitConfig())
	for k := uint64(0); k < 200; k++ {
		if _, err := st.Put(k, strconv.FormatUint(k, 10)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond) // a few controller ticks
	for k := uint64(0); k < 200; k++ {
		if _, err := st.Put(k, "x"); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Shed != 0 || stats.Wounded != 0 {
		t.Fatalf("healthy store shed traffic: shed=%d wounded=%d", stats.Shed, stats.Wounded)
	}
	for _, sh := range stats.Shards {
		if sh.Overload > 0.5 {
			t.Fatalf("healthy shard %d scored overloaded: %v", sh.Shard, sh.Overload)
		}
	}
}

// TestShedUnderForcedOverload: a knee of 0 is the documented "always past
// the knee" drill mode — the controller must ramp the shed probability and
// writes must start failing with ErrBackpressure while reads keep flowing.
func TestShedUnderForcedOverload(t *testing.T) {
	ac := DefaultAdmitConfig()
	ac.ShedKnee = 0 // drill mode
	ac.ShedMax = 0.9
	ac.PredictorRouting = false
	ac.Tick = 5 * time.Millisecond
	st := openAdmitTest(t, ac)
	if _, err := st.Put(1, "v"); err != nil {
		t.Fatal(err)
	}
	// One tick puts every shard at 0.1 and each later one adds 0.1; on a
	// loaded machine the controller goroutine may not run for a long while,
	// so wait for the tick itself, not for the time it should have taken.
	eventually(t, "every shard sheds", func() bool {
		for _, s := range st.shards {
			if s.ctl.shedProb() == 0 {
				return false
			}
		}
		return true
	})

	var shed, ok int
	for i := 0; i < 500; i++ {
		_, err := st.Put(uint64(i), "x")
		switch {
		case errors.Is(err, ErrBackpressure):
			shed++
		case err == nil:
			ok++
		default:
			t.Fatal(err)
		}
		// Reads are never shed.
		if _, _, err := st.Get(uint64(i)); err != nil {
			t.Fatalf("read failed under shedding: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("forced overload shed nothing")
	}
	if ok == 0 {
		t.Fatal("shedding starved all writes (ShedMax must keep some flowing)")
	}
	if got := st.Stats().Shed; got == 0 {
		t.Fatal("shed counter not reported in stats")
	}
}

// TestPredictorRoutesHotKeys: conflicts on a key (CAS misses) must make
// subsequent writes to it route through the admission queue.
func TestPredictorRoutesHotKeys(t *testing.T) {
	ac := DefaultAdmitConfig()
	ac.Tick = time.Hour // keep the window from rotating mid-test
	st := openAdmitTest(t, ac)
	const hot = uint64(77)
	if _, err := st.Put(hot, "v"); err != nil {
		t.Fatal(err)
	}
	if swapped, err := st.CAS(hot, "wrong", "w"); err != nil || swapped {
		t.Fatalf("CAS: swapped=%v err=%v", swapped, err)
	}
	if _, err := st.Put(hot, "v2"); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Routed == 0 {
		t.Fatal("write to a conflicted key was not routed through admission")
	}
	if v, okFound, err := st.Get(hot); err != nil || !okFound || v != "v2" {
		t.Fatalf("routed write lost: %q %v %v", v, okFound, err)
	}
}

// TestBatchWoundWait: large cross-shard batches pass the admission queue.
func TestLargeBatchesPassAdmission(t *testing.T) {
	ac := DefaultAdmitConfig()
	ac.LargeBatchStripes = 2 // everything cross-shard is "large"
	ac.PredictorRouting = false
	st := openAdmitTest(t, ac)
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: uint64(i * 101), Value: "b"}
	}
	if _, err := st.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if st.ctrl.q.admitted.Load() == 0 {
		t.Fatal("large cross-shard batch bypassed the admission queue")
	}
}

// TestAdaptiveStripesGrowUnderContention: the controller tick must drive
// keylock.Adapt; force it by injecting stripe waits directly.
func TestAdaptiveStripeResizeReported(t *testing.T) {
	ac := DefaultAdmitConfig()
	ac.StripeAdapt.MinStripes = 16
	ac.StripeAdapt.MaxStripes = 512 // above the 64-stripe default, so growth is possible
	ac.StripeAdapt.MinSampleOps = 1
	ac.StripeAdapt.GrowWaitsPerOp = 1e-9 // any wait grows
	ac.StripeAdapt.ShrinkWaitsPerOp = -1 // never shrink
	st := openAdmitTest(t, ac)

	// Manufacture contended acquisitions on shard 0's table (an exclusive
	// stripe holder blocks a single-key shared acquisition), plus commits
	// so Adapt has an op delta to divide by.
	s := st.shards[0]
	for i := 0; i < 4; i++ {
		i := i
		idx := s.locks.StripeOf(uint64(i))
		s.locks.Enter()
		s.locks.Lock(idx)
		done := make(chan struct{})
		go func() { j := s.locks.RLockKey(uint64(i)); s.locks.RUnlock(j); close(done) }()
		time.Sleep(2 * time.Millisecond)
		s.locks.Unlock(idx)
		s.locks.Exit()
		<-done
	}
	for k := uint64(0); k < 50; k++ {
		if _, err := st.Put(k, "x"); err != nil && !errors.Is(err, ErrBackpressure) {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().Shards[0].StripeResizes > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("controller never resized a contended stripe table")
}

func BenchmarkAdmissionIdle(b *testing.B) {
	// The cost the admission layer adds to a healthy write path.
	ac := DefaultAdmitConfig()
	st, err := Open(Config{Shards: 4, Buckets: 256, Admission: &ac})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := "value"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.PutRef(uint64(i)&1023, &val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdmissionQueue(b *testing.B) {
	q := newAdmitQueue(2, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.acquire(); err != nil {
			b.Fatal(err)
		}
		q.release()
	}
}

func BenchmarkAdmissionShed(b *testing.B) {
	// The cost of a rejection: overload's hot path.
	c := &shardCtl{}
	c.shedBits.Store(math.Float64bits(1.0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.admitWrite(uint64(i)); err == nil {
			b.Fatal("shed at probability 1 admitted a write")
		}
	}
}
