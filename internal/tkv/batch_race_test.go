package tkv

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/stm"
)

// disjointKeys finds two keys owned by the same shard plus two keys on two
// further, distinct shards — the smallest key geometry that lets a test build
// two cross-shard batches whose keys are disjoint while sharing a shard.
func disjointKeys(st *Store) (a, b, c, d uint64) {
	sh := st.ShardOf(0)
	for b = 1; st.ShardOf(b) != sh; b++ {
	}
	for c = b + 1; st.ShardOf(c) == sh; c++ {
	}
	for d = c + 1; st.ShardOf(d) == sh || st.ShardOf(d) == st.ShardOf(c); d++ {
	}
	return 0, b, c, d
}

// TestConcurrentDisjointBatches pins what a write in flight does to batches,
// on a logged and an unlogged store alike: nothing is locked per key outside
// the engine, so with a transaction over key a parked before its commit
// (holding a's lock, as a logged write holds it while it appends), a
// cross-shard batch over other keys of a's shard commits concurrently, while
// a batch over a cannot commit until the parked transaction has.
func TestConcurrentDisjointBatches(t *testing.T) {
	for _, ring := range []int{8, 0} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			st := openTest(t, Config{Shards: 4, PoolSize: 4, ReplRing: ring})
			a, b, c, d := disjointKeys(st)
			if _, err := st.Put(a, "0"); err != nil {
				t.Fatal(err)
			}
			shA := st.shardFor(a)

			// Stand in for an in-flight write over key a.
			locked, release, parked := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				first := true
				parked <- shA.atomically(func(tx stm.Tx) error {
					if _, err := shA.kv.PutRef(tx, a, NewCell("0")); err != nil {
						return err
					}
					if first {
						first = false
						close(locked)
						<-release
					}
					return nil
				}, nil)
			}()
			<-locked

			disjoint := make(chan error, 1)
			go func() {
				_, err := st.Batch([]Op{
					{Kind: OpAdd, Key: b, Delta: 1},
					{Kind: OpAdd, Key: c, Delta: 1},
				})
				disjoint <- err
			}()
			if err := within(t, "batch over other keys of the parked write's shard", disjoint); err != nil {
				t.Fatal(err)
			}

			overlapping := make(chan error, 1)
			go func() {
				_, err := st.Batch([]Op{
					{Kind: OpAdd, Key: a, Delta: 1},
					{Kind: OpAdd, Key: d, Delta: 1},
				})
				overlapping <- err
			}()
			select {
			case err := <-overlapping:
				t.Fatalf("batch over the parked write's key did not wait for it (err=%v)", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			if err := within(t, "the parked write", parked); err != nil {
				t.Fatal(err)
			}
			if err := within(t, "the waiting batch after the write committed", overlapping); err != nil {
				t.Fatal(err)
			}

			// Both batches landed exactly once each.
			for _, k := range []uint64{a, b, c, d} {
				if v, _, _ := st.Get(k); v != "1" {
					t.Fatalf("key %d = %q, want \"1\"", k, v)
				}
			}
		})
	}
}

// TestOverlappingBatchesNoLostUpdates is the -race stress for the batch
// path: workers hammer a small counter space through overlapping
// cross-shard batches of adds and batch-cas increments (retrying on
// ErrCASMismatch), concurrent single-key adds, and a pair of keys written
// atomically by put-put batches and observed by MGet readers. It asserts
// (a) the final counter sum equals the number of acknowledged increments
// (no lost updates, no torn per-batch atomicity) and (b) no MGet ever
// observes the put-put pair split (one transaction per batch and per
// MGet at work).
func TestOverlappingBatchesNoLostUpdates(t *testing.T) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		t.Run(engine, func(t *testing.T) {
			st := openTest(t, Config{
				Shards:    4,
				PoolSize:  4,
				Engine:    engine,
				Scheduler: enginecfg.SchedShrink,
			})
			const nKeys = 32
			const workers = 8
			const iters = 150
			// The observed pair lives outside the counter region.
			pair := []uint64{1 << 40, 1<<40 + 5}

			var succeeded counter
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) * 977))
					for i := 0; i < iters; i++ {
						switch rng.Intn(4) {
						case 0: // overlapping cross-shard batch of adds
							ops := make([]Op, 4)
							for j := range ops {
								ops[j] = Op{Kind: OpAdd, Key: uint64(rng.Intn(nKeys)), Delta: 1}
							}
							if _, err := st.Batch(ops); err != nil {
								t.Error(err)
								return
							}
							succeeded.Add(uint64(len(ops)))
						case 1: // batch-cas increment, retried on mismatch
							key := uint64(rng.Intn(nKeys))
							other := uint64(rng.Intn(nKeys))
							for {
								cur, found, err := st.Get(key)
								if err != nil {
									t.Error(err)
									return
								}
								n := int64(0)
								if found {
									if n, err = strconv.ParseInt(cur, 10, 64); err != nil {
										t.Error(err)
										return
									}
								}
								if !found {
									// Seed missing keys via Add (batch cas
									// never matches a missing key).
									if _, err := st.Add(key, 1); err != nil {
										t.Error(err)
										return
									}
									succeeded.Add(1)
									break
								}
								// One cas and one add, atomically: on
								// mismatch the add must not land either.
								_, err = st.Batch([]Op{
									{Kind: OpCAS, Key: key, Old: cur, Value: strconv.FormatInt(n+1, 10)},
									{Kind: OpAdd, Key: other, Delta: 1},
								})
								if errors.Is(err, ErrCASMismatch) {
									continue // lost the race; whole batch rolled back
								}
								if err != nil {
									t.Error(err)
									return
								}
								succeeded.Add(2)
								break
							}
						case 2: // single-key add, concurrent with batches
							if _, err := st.Add(uint64(rng.Intn(nKeys)), 1); err != nil {
								t.Error(err)
								return
							}
							succeeded.Add(1)
						case 3: // atomic pair write, observed by readers below
							token := fmt.Sprintf("w%d-%d", w, i)
							if _, err := st.Batch([]Op{
								{Kind: OpPut, Key: pair[0], Value: token},
								{Kind: OpPut, Key: pair[1], Value: token},
							}); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}

			// MGet readers: the pair must never be observed split.
			stop := make(chan struct{})
			var rwg sync.WaitGroup
			for r := 0; r < 2; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res, err := st.MGet(pair)
						if err != nil {
							t.Error(err)
							return
						}
						if res[0].Found != res[1].Found || res[0].Value != res[1].Value {
							t.Errorf("MGet observed a torn put-put batch: %+v vs %+v", res[0], res[1])
							return
						}
					}
				}()
			}

			wg.Wait()
			close(stop)
			rwg.Wait()
			if t.Failed() {
				return
			}

			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for k, v := range snap {
				if k >= nKeys {
					continue // the pair keys
				}
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("counter key %d holds %q", k, v)
				}
				sum += n
			}
			if sum != int64(succeeded.Load()) {
				t.Fatalf("lost updates: counters sum to %d, %d increments succeeded", sum, succeeded.Load())
			}
		})
	}
}

// TestBatchCASMismatchNoPartialWrites checks that a failed cas compare
// aborts the whole batch — ops before and after the failing one, on the
// same and on other shards — on both the cross-shard and the single-shard
// path, and that the returned results carry CASMismatch exactly on the
// failing op.
func TestBatchCASMismatchNoPartialWrites(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	a, b, c, d := disjointKeys(st)

	if _, err := st.Put(c, "current"); err != nil {
		t.Fatal(err)
	}

	// Cross-shard: put on one shard, failing cas on another, add on a third.
	res, err := st.Batch([]Op{
		{Kind: OpPut, Key: a, Value: "leaked?"},
		{Kind: OpCAS, Key: c, Old: "stale", Value: "swapped?"},
		{Kind: OpAdd, Key: d, Delta: 7},
	})
	if !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("err = %v, want ErrCASMismatch", err)
	}
	if len(res) != 3 || !res[1].CASMismatch || res[1].Value != "current" || !res[1].Found {
		t.Fatalf("mismatch results = %+v", res)
	}
	if res[0].CASMismatch || res[2].CASMismatch {
		t.Fatalf("mismatch flag leaked onto other ops: %+v", res)
	}
	if _, found, _ := st.Get(a); found {
		t.Fatal("aborted batch leaked a put")
	}
	if v, _, _ := st.Get(c); v != "current" {
		t.Fatalf("aborted batch swapped the cas target: %q", v)
	}
	if _, found, _ := st.Get(d); found {
		t.Fatal("aborted batch leaked an add")
	}

	// cas of a missing key never matches.
	res, err = st.Batch([]Op{{Kind: OpCAS, Key: a, Old: "", Value: "x"}})
	if !errors.Is(err, ErrCASMismatch) || res[0].Found {
		t.Fatalf("cas of missing key: err=%v res=%+v", err, res)
	}

	// Single-shard fast path: same semantics inside one STM transaction.
	sh := st.ShardOf(a)
	if st.ShardOf(b) != sh {
		t.Fatalf("keys %d and %d should share a shard", a, b)
	}
	if _, err := st.Put(b, "held"); err != nil {
		t.Fatal(err)
	}
	res, err = st.Batch([]Op{
		{Kind: OpAdd, Key: a, Delta: 3},
		{Kind: OpCAS, Key: b, Old: "wrong", Value: "swapped?"},
	})
	if !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("single-shard err = %v, want ErrCASMismatch", err)
	}
	if !res[1].CASMismatch || res[1].Value != "held" {
		t.Fatalf("single-shard mismatch results = %+v", res)
	}
	if _, found, _ := st.Get(a); found {
		t.Fatal("aborted single-shard batch leaked an add")
	}

	// A successful batch cas swaps and composes with the other ops.
	res, err = st.Batch([]Op{
		{Kind: OpCAS, Key: c, Old: "current", Value: "next"},
		{Kind: OpAdd, Key: d, Delta: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].CASMismatch || !res[0].Found || res[1].Value != "2" {
		t.Fatalf("successful batch cas results = %+v", res)
	}
	if v, _, _ := st.Get(c); v != "next" {
		t.Fatalf("batch cas did not swap: %q", v)
	}
	if stats := st.Stats(); stats.Ops.BatchCASMisses != 3 {
		t.Fatalf("batchCASMisses = %d, want 3", stats.Ops.BatchCASMisses)
	}
}
