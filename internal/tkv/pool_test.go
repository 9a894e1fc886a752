package tkv

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/stm"
)

// eventually polls cond until it holds, failing the test after five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestThreadPoolBound: PoolSize transactions run in a shard at once and no
// more. With both threads of a shard parked inside transaction bodies a
// third caller waits in the pool, runs once a thread is released, and no
// thread ever runs two bodies at a time.
func TestThreadPoolBound(t *testing.T) {
	st := openTest(t, Config{Shards: 1, PoolSize: 2})
	s := st.shards[0]
	inUse := make([]atomic.Bool, len(st.tm.Threads()))
	var running atomic.Int32
	// body marks its thread in use for as long as it runs; it reads and
	// writes nothing, so the engine never reruns it.
	body := func(park <-chan struct{}) func(tx stm.Tx) error {
		return func(tx stm.Tx) error {
			id := tx.ThreadID()
			if !inUse[id].CompareAndSwap(false, true) {
				t.Errorf("thread %d runs two bodies at once", id)
			}
			if n := running.Add(1); n > 2 {
				t.Errorf("%d bodies running in a shard of PoolSize 2", n)
			}
			if park != nil {
				<-park
			}
			running.Add(-1)
			inUse[id].Store(false)
			return nil
		}
	}

	release := make(chan struct{})
	var parked sync.WaitGroup
	for i := 0; i < 2; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			if err := s.atomically(body(release), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	eventually(t, "both threads are inside a body", func() bool { return running.Load() == 2 })
	if free := s.pool.free.Load(); free != 0 {
		t.Fatalf("free word %b with both threads held", free)
	}

	third := make(chan error, 1)
	go func() {
		_, _, err := st.Get(1)
		third <- err
	}()
	eventually(t, "the third caller waits in the pool", func() bool { return s.pool.waiters.Load() == 1 })
	select {
	case err := <-third:
		t.Fatalf("third caller ran with both threads held (err %v)", err)
	default:
	}
	release <- struct{}{} // one body returns its thread
	select {
	case err := <-third:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third caller still blocked after a thread was released")
	}
	close(release)
	parked.Wait()

	// Many callers over the two threads: the in-use flags hold throughout.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := body(nil)
			for i := 0; i < 2000; i++ {
				if err := s.atomically(run, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if free, w := s.pool.free.Load(), s.pool.waiters.Load(); free != 0b11 || w != 0 {
		t.Fatalf("idle pool: free word %b, %d waiters", free, w)
	}
}

// TestThreadPoolNoLostWakeup: with one thread for sixteen callers nearly
// every claim parks, so a release that missed a waiter would hang the run.
func TestThreadPoolNoLostWakeup(t *testing.T) {
	st := openTest(t, Config{Shards: 1, PoolSize: 1})
	const callers, rounds, counters = 16, 5000, 4
	var added atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := uint64((g + i) % counters)
				var err error
				switch i % 3 {
				case 0:
					_, _, err = st.Get(k)
				case 1:
					_, err = st.Add(k, 1)
					added.Add(1)
				default:
					_, err = st.Batch([]Op{
						{Kind: OpAdd, Key: k, Delta: 2},
						{Kind: OpAdd, Key: (k + 1) % counters, Delta: 3},
					})
					added.Add(5)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("callers still running after 60 s: free word %b, %d waiters",
			st.shards[0].pool.free.Load(), st.shards[0].pool.waiters.Load())
	}
	var sum int64
	for k := uint64(0); k < counters; k++ {
		v, _, err := st.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		sum += n
	}
	if sum != added.Load() {
		t.Fatalf("counters sum to %d, %d was added", sum, added.Load())
	}
}

// TestThreadReturnedOnPanic: a transaction body that panics, recovered by
// its caller, returns its thread; under a single-key write of a logged
// store, where the shard's gate is held around the thread and the thread
// carries a commit hook, the gate comes back with it and the hook is cleared
// (testWritePanic).
func TestThreadReturnedOnPanic(t *testing.T) {
	st := openTest(t, Config{Shards: 1, PoolSize: 2, Admission: &AdmitConfig{}})
	defer st.Close()
	s := st.shards[0]
	boom := func(stm.Tx) error { panic("boom") }
	boomRO := func(*stm.ROTx) error { panic("boom") }
	paths := map[string]func(){
		"atomically":   func() { s.atomically(boom, nil) },
		"atomicallyRO": func() { s.atomicallyRO(boomRO) },
		"roTracked":    func() { s.roTracked(boomRO) },
	}
	for name, call := range paths {
		for i := 0; i < 3; i++ { // more panics than the pool has threads
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: body did not panic", name)
					}
				}()
				call()
			}()
		}
		if free := s.pool.free.Load(); free != 0b11 {
			t.Fatalf("%s: free word %b after recovered panics, want both threads idle", name, free)
		}
	}
	// Both threads can be claimed, and serve.
	a, b := s.pool.claim(), s.pool.claim()
	if a == b {
		t.Fatalf("thread %d claimed twice", a)
	}
	s.pool.release(a)
	s.pool.release(b)
	if _, err := st.Put(1, "v"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := st.Get(1); err != nil || !ok || v != "v" {
		t.Fatalf("Get after recovered panics = %q %v %v", v, ok, err)
	}
	t.Run("write/unlogged", func(t *testing.T) { testWritePanic(t, 0) })
	t.Run("write/logged", func(t *testing.T) { testWritePanic(t, 64) })
}

// testWritePanic: a body that panics under any of the four single-key
// writes, on an admission-on store that is unlogged (ring 0: no gate) or
// logged (its shard's gate, and a commit hook on its thread), leaves nothing
// held once its caller has recovered — not the pooled thread, no thread's
// commit hook, and on the logged store not the gate.
func testWritePanic(t *testing.T, ring int) {
	const hot = uint64(77)
	writes := map[string]func(*Store){
		"Put":    func(st *Store) { st.Put(hot, "v") },
		"Delete": func(st *Store) { st.Delete(hot) },
		"CAS":    func(st *Store) { st.CAS(hot, "v", "w") },
		"Add":    func(st *Store) { st.Add(hot, 1) },
	}
	ac := DefaultAdmitConfig()
	st := openTest(t, Config{Shards: 1, PoolSize: 2, ReplRing: ring, Admission: &ac})
	defer st.Close()
	s := st.shards[0]
	healthy := slotPool
	swapPool(t, &slotPool, func() any {
		sl := newOpSlot()
		sl.run = func(stm.Tx) error { panic("boom") }
		return sl
	})
	for name, write := range writes {
		for i := 0; i < 3; i++ { // more panics than threads
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: body did not panic", name)
					}
				}()
				write(st)
			}()
			if free := s.pool.free.Load(); free != 0b11 {
				t.Fatalf("%s: after a recovered panic free word %b, want both threads idle", name, free)
			}
			for _, th := range s.pool.threads {
				if th.Ctx().CommitHook != nil {
					t.Fatalf("%s: a commit hook left on thread %d after a recovered panic", name, th.ID())
				}
			}
			if ring > 0 {
				frozen := make(chan struct{})
				go func() { s.gate.freeze(); close(frozen) }()
				within(t, "the shard's gate after a recovered "+name, frozen)
				s.gate.unfreeze()
			}
		}
	}
	slotPool = healthy
	if n, err := st.Add(hot, 1); err != nil || n != 1 {
		t.Fatalf("Add after recovered panics = %d %v", n, err)
	}
}
