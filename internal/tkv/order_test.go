package tkv

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// The ordering a log promises (repl.go, "Ordering"): two writes to one key
// append in their commit order, and a read never returns a write whose record
// is not yet in the log. Each test runs on both engines.

// TestPutDeleteOrderedInLog pins the anti-dependency the single-key delete
// closes by reading the key's value cell: a put over an existing key writes
// only that cell, and the map's delete only the key's links, so a delete that
// skipped the read could commit and append while a put that had already
// validated was still on its way to the log — which would then say "delete,
// put" of a key the store does not hold. With the shard's log held, the put
// parks inside its commit, still locking the value cell; the delete must keep
// aborting on that lock rather than commit past it, and once the log is
// released the window holds the put, then the tombstone.
func TestPutDeleteOrderedInLog(t *testing.T) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		t.Run(engine, func(t *testing.T) {
			const key = 7
			st := openTest(t, Config{Shards: 2, Engine: engine, ReplRing: 64})
			if _, err := st.Put(key, "old"); err != nil {
				t.Fatal(err)
			}
			sh := st.ShardOf(key)
			s, l := st.shards[sh], &st.logs[sh]
			head := l.last()

			inHook := make(chan struct{})
			var once sync.Once
			swapPool(t, &slotPool, func() any {
				sl := newOpSlot()
				logWrite := sl.logWrite
				sl.logWrite = func() {
					if sl.op.Kind == OpPut {
						once.Do(func() { close(inHook) })
					}
					logWrite()
				}
				return sl
			})

			l.mu.Lock()
			unlock := sync.OnceFunc(l.mu.Unlock)
			defer unlock()
			put := make(chan error, 1)
			go func() { _, err := st.Put(key, "new"); put <- err }()
			within(t, "the put in its commit", inHook)
			aborts := s.pool.stats().Aborts
			del := make(chan error, 1)
			go func() { _, err := st.Delete(key); del <- err }()
			// Stats would read the held log's head: count the pool instead.
			eventually(t, "the delete aborts on the parked put's lock", func() bool {
				return s.pool.stats().Aborts > aborts
			})
			select {
			case err := <-put:
				t.Fatalf("the put returned (err %v) with its shard's log held", err)
			case err := <-del:
				t.Fatalf("the delete returned (err %v) past a put parked in its commit", err)
			default:
			}
			unlock()
			if err := within(t, "the put", put); err != nil {
				t.Fatal(err)
			}
			if err := within(t, "the delete", del); err != nil {
				t.Fatal(err)
			}

			recs, ok := st.Repl().ReadFrom(sh, head+1, 8, nil)
			want := [][]tkvlog.Entry{{{Key: key, Val: "new"}}, {{Key: key, Del: true}}}
			if !ok || len(recs) != len(want) {
				t.Fatalf("window after the put and the delete: %+v (ok %v), want %+v", recs, ok, want)
			}
			for i, r := range recs {
				if !slices.Equal(r.Entries, want[i]) {
					t.Fatalf("record %d = %+v, want %+v", r.Seq, r.Entries, want[i])
				}
			}
			if v, found, err := st.Get(key); err != nil || found {
				t.Fatalf("Get after the delete = %q %v %v, want absent", v, found, err)
			}
		})
	}
}

// findRecord reports whether shard's window holds an entry of key with value
// val at a sequence no higher than head, scanning back from head.
func findRecord(l *ReplLog, shard int, head, key uint64, val string) bool {
	const chunk = 256
	var recs []ReplRec
	for hi := head; hi >= 1; hi -= min(hi, chunk) {
		lo := hi - min(hi, chunk) + 1
		recs, _ = l.ReadFrom(shard, lo, int(hi-lo+1), recs[:0])
		for _, r := range recs {
			for _, e := range r.Entries {
				if e.Key == key && !e.Del && e.Val == val {
					return true
				}
			}
		}
	}
	return false
}

// TestRecordNeverTrailsARead: writers put unique tokens on four hot keys of
// a replicated store; a reader that gets a token must then find its record in
// the key's shard's window at a sequence no higher than the head it reads
// next. A record appended after its commit's locks were released would let a
// reader see the token while the head still fell short of it; every writer
// yields just before its append, so that even one processor gives a reader
// that chance.
func TestRecordNeverTrailsARead(t *testing.T) {
	const writers, readers, puts, reads = 4, 4, 1500, 1500
	hot := []uint64{1, 2, 3, 4}
	swapPool(t, &slotPool, func() any {
		sl := newOpSlot()
		logWrite := sl.logWrite
		sl.logWrite = func() {
			runtime.Gosched()
			logWrite()
		}
		return sl
	})
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		t.Run(engine, func(t *testing.T) {
			// The window holds every record the test makes. Readers that
			// meet a writer's lock give the processor away (busy waiting, at
			// one processor, would leave a yielding writer a time slice per
			// spinning reader).
			st := openTest(t, Config{Shards: 2, Engine: engine, Wait: stm.WaitPreemptive, ReplRing: 1 << 13})
			for _, k := range hot {
				if _, err := st.Put(k, "init"); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range puts {
						if _, err := st.Put(hot[(w+i)%len(hot)], fmt.Sprintf("w%d-%d", w, i)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for r := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range reads {
						k := hot[(r+i)%len(hot)]
						v, ok, err := st.Get(k)
						if err != nil || !ok {
							t.Errorf("Get(%d) = %q %v %v", k, v, ok, err)
							return
						}
						sh := st.ShardOf(k)
						head := st.Repl().Head(sh)
						if !findRecord(st.Repl(), sh, head, k, v) {
							t.Errorf("Get(%d) returned %q, whose record is not in shard %d's window up to the head %d read after it", k, v, sh, head)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestLogReplaysToStore: eight writers mix puts, deletes, CASes, adds and
// 8-key batches over sixteen hot keys of a replicated store; afterwards each
// shard's window, replayed in sequence order into a fresh store, must give
// exactly the store's contents — the log is a serial history of the store,
// whatever order the engine committed the writers in.
func TestLogReplaysToStore(t *testing.T) {
	const writers, ops, keys = 8, 400, 16
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		t.Run(engine, func(t *testing.T) {
			st := openTest(t, Config{Shards: 4, Engine: engine, ReplRing: 1 << 13})
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for range ops {
						k := uint64(rng.Intn(keys))
						var err error
						switch rng.Intn(5) {
						case 0:
							_, err = st.Put(k, strconv.Itoa(rng.Intn(100)))
						case 1:
							_, err = st.Delete(k)
						case 2:
							cur, _, _ := st.Get(k)
							_, err = st.CAS(k, cur, strconv.Itoa(rng.Intn(100)))
						case 3:
							_, err = st.Add(k, 1)
						case 4:
							batch := make([]Op, 8)
							for i := range batch {
								batch[i] = Op{Kind: OpAdd, Key: uint64(rng.Intn(keys)), Delta: 1}
								if i%3 == 0 {
									batch[i] = Op{Kind: OpPut, Key: batch[i].Key, Value: strconv.Itoa(i)}
								}
							}
							_, err = st.Batch(batch)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()

			replay := openTest(t, Config{Shards: 4})
			for sh := range st.NumShards() {
				recs, ok := st.Repl().ReadFrom(sh, 1, 1<<13, nil)
				if !ok || uint64(len(recs)) != st.Repl().Head(sh) {
					t.Fatalf("shard %d: %d records readable (ok %v), head %d", sh, len(recs), ok, st.Repl().Head(sh))
				}
				for _, r := range recs {
					for _, e := range r.Entries {
						var err error
						if e.Del {
							_, err = replay.Delete(e.Key)
						} else {
							_, err = replay.Put(e.Key, e.Val)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			want, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := replay.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("the log replays to %v, the store holds %v", got, want)
			}
		})
	}
}
