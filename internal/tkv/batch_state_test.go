package tkv

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/stm"
)

// shardKeys returns the first n keys at or above from owned by shard sh.
func shardKeys(st *Store, sh, n int, from uint64) []uint64 {
	var keys []uint64
	for k := from; len(keys) < n; k++ {
		if st.ShardOf(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

// allocBatchOps is the benchmark workload's batch shape: 4 adds and 4 puts
// over 8 distinct keys of at least two shards.
func allocBatchOps(t *testing.T, st *Store) []Op {
	t.Helper()
	ops := make([]Op, 8)
	shards := map[int]bool{}
	for i := range ops {
		k := uint64(i) * 7919
		shards[st.ShardOf(k)] = true
		if i < 4 {
			ops[i] = Op{Kind: OpAdd, Key: k, Delta: 3}
		} else {
			ops[i] = Op{Kind: OpPut, Key: k, Value: "tag"}
		}
	}
	if len(shards) < 2 {
		t.Fatal("alloc-gate keys landed on one shard; pick a different stride")
	}
	return ops
}

// TestBatchAllocBudget is the batch path's allocation gate: a call
// allocates what it hands away — the result slice, one cell per written
// value, the decimal string of an add — and nothing for its grouping.
func TestBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per access")
	}
	st := openTest(t, Config{Shards: 4})
	run := func(ops []Op) float64 {
		t.Helper()
		do := func() {
			if _, err := st.Batch(ops); err != nil {
				t.Fatal(err)
			}
		}
		do() // insert the keys: steady state overwrites
		return testing.AllocsPerRun(200, do)
	}

	cross := allocBatchOps(t, st)
	if got, max := run(cross), float64(1+2*len(cross)); got > max {
		t.Errorf("8-op cross-shard batch: %v allocs/op, budget %v", got, max)
	}

	// Single shard, no log: one transaction straight onto the map. Two
	// puts (a cell each) and two adds (string and cell each).
	ks := shardKeys(st, 1, 4, 0)
	single := []Op{
		{Kind: OpPut, Key: ks[0], Value: "a"},
		{Kind: OpPut, Key: ks[1], Value: "b"},
		{Kind: OpAdd, Key: ks[2], Delta: 1000},
		{Kind: OpAdd, Key: ks[3], Delta: 1000},
	}
	if got := run(single); got > 1+2+2*2 {
		t.Errorf("single-shard batch: %v allocs/op, budget 7", got)
	}

	gets := make([]Op, len(cross))
	for i, op := range cross {
		gets[i] = Op{Kind: OpGet, Key: op.Key}
	}
	if got := run(gets); got > 1 {
		t.Errorf("get-only batch: %v allocs/op, want 1 (the result slice)", got)
	}
}

// TestMGetOneAlloc: a multi-key read allocates exactly its result slice.
func TestMGetOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per access")
	}
	st := openTest(t, Config{Shards: 4})
	keys := make([]uint64, 8)
	for i, op := range allocBatchOps(t, st) {
		keys[i] = op.Key
		if _, err := st.Put(op.Key, "v"); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := st.MGet(keys); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("8-key cross-shard MGet: %v allocs/op, want 1", got)
	}
}

// TestBatchStateReuse runs a large batch, an aborted batch and a small
// batch through one pooled state and checks that nothing carries over: the
// small batch reads stored values, not the aborted batch's writes, a
// snapshot shows nothing the aborted batch wrote, and a released state
// references neither its store nor any of the values that passed through it.
// The store is logged, so that the state records every batch's writes too.
func TestBatchStateReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back the same state
	st := openTest(t, Config{Shards: 4, ReplRing: 256})
	var states []*batchState
	swapPool(t, &batchPool, func() any {
		b := newBatchState()
		states = append(states, b)
		return b
	})
	big := strings.Repeat("x", 4096)

	// 64 ops over all four shards, every key twice, and on one key
	// put-then-get and delete-then-get.
	probe := uint64(3)
	var ops []Op
	for i := 0; i < 29; i++ {
		k := uint64(100 + i)
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: big}, Op{Kind: OpAdd, Key: uint64(1000 + i), Delta: 1})
	}
	ops = append(ops,
		Op{Kind: OpPut, Key: probe, Value: big},
		Op{Kind: OpGet, Key: probe},
		Op{Kind: OpDelete, Key: probe},
		Op{Kind: OpGet, Key: probe},
		Op{Kind: OpAdd, Key: 1000, Delta: 1}, // duplicate of the first add
		Op{Kind: OpPut, Key: 100, Value: "last wins"},
	)
	if len(ops) != 64 {
		t.Fatalf("built %d ops", len(ops))
	}
	res, err := st.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if r := res[59]; !r.Found || r.Value != big {
		t.Fatalf("get after put inside the batch: found=%v, %d bytes", r.Found, len(r.Value))
	}
	if r := res[61]; r.Found {
		t.Fatalf("get after delete inside the batch found %d bytes", len(r.Value))
	}
	if r := res[62]; r.Value != "2" {
		t.Fatalf("second add of one key inside the batch = %q, want 2", r.Value)
	}
	if v, _, _ := st.Get(100); v != "last wins" {
		t.Fatalf("two puts of one key: stored %d bytes, want the later one", len(v))
	}
	if _, found, _ := st.Get(probe); found {
		t.Fatal("key deleted last inside the batch is stored")
	}

	// Abort halfway through the second participating shard, with writes
	// made and recorded on both.
	s0, s1 := shardKeys(st, 0, 2, 0), shardKeys(st, 2, 4, 0)
	for _, k := range append(s0, s1...) {
		if _, err := st.Put(k, "stored"); err != nil {
			t.Fatal(err)
		}
	}
	before, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err = st.Batch([]Op{
		{Kind: OpPut, Key: s0[0], Value: "aborted"},
		{Kind: OpDelete, Key: s0[1]},
		{Kind: OpPut, Key: s1[0], Value: "aborted"},
		{Kind: OpDelete, Key: s1[1]},
		{Kind: OpCAS, Key: s1[2], Old: "not stored", Value: "aborted"},
		{Kind: OpPut, Key: s1[3], Value: "aborted"},
	})
	if !errors.Is(err, ErrCASMismatch) || !res[4].CASMismatch || res[4].Value != "stored" {
		t.Fatalf("aborting batch: err=%v res=%+v", err, res)
	}

	// The next batch through the state must plan against the store.
	res, err = st.Batch([]Op{
		{Kind: OpGet, Key: s1[0]},
		{Kind: OpAdd, Key: 1001, Delta: 1}, // mutating: the update transaction
		{Kind: OpGet, Key: s1[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != "stored" || !res[2].Found || res[2].Value != "stored" {
		t.Fatalf("batch after an aborted one read its leftovers: %+v", res)
	}
	after, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before[1001] = "2"
	if len(after) != len(before) {
		t.Fatalf("snapshot has %d keys, want %d", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %d: the aborted batch shows in the snapshot (%d bytes)", k, len(after[k]))
		}
	}

	if !raceEnabled && len(states) != 1 {
		t.Fatalf("%d batch states built, want one reused", len(states))
	}
	for _, b := range states {
		if b.st != nil || b.ops != nil || b.results != nil || len(b.keys) != 0 ||
			b.s != nil || b.tx != nil {
			t.Fatalf("released state still references its call: %+v", b)
		}
		for _, e := range b.writes[:cap(b.writes)] {
			if e.Val != "" {
				t.Fatalf("released state pins a recorded value (%d bytes)", len(e.Val))
			}
		}
		for _, c := range b.commits[:cap(b.commits)] {
			if c != nil {
				t.Fatal("released state pins a durability handle")
			}
		}
	}
}

// TestBatchRestartAppliesOnce forces a mutating batch's one transaction to
// restart after it has already run some of its ops (the body yields the
// processor mid-batch while a writer inserts and deletes neighbouring keys
// on the same bucket chains) and checks that a restarted attempt starts
// clean: every counter receives each batch's deltas exactly once, and on a
// logged store an attempt never records more writes than the batch has ops
// and a batch's record holds exactly its shard's writes. Every key is added to
// twice, so the second add reads the first through the transaction's own
// write log.
func TestBatchRestartAppliesOnce(t *testing.T) {
	for _, ring := range []int{0, 1 << 12} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) { testBatchRestart(t, ring) })
	}
}

// yieldTx is a transaction whose every read first calls yield.
type yieldTx struct {
	stm.Tx
	yield func()
}

func (y yieldTx) ReadPtr(v *stm.Var) (unsafe.Pointer, error) {
	y.yield()
	return y.Tx.ReadPtr(v)
}

func testBatchRestart(t *testing.T, ring int) {
	st := openTest(t, Config{Shards: 2, Buckets: 16, PoolSize: 4, ReplRing: ring})
	const delta, perShard = 3, 4
	var ops []Op
	for sh := 0; sh < 2; sh++ {
		keys := shardKeys(st, sh, perShard, 1<<20)
		for _, k := range append(keys, keys...) {
			ops = append(ops, Op{Kind: OpAdd, Key: k, Delta: delta})
		}
	}

	// yields is each batch's budget of mid-batch yields: unbounded, every
	// attempt would yield, conflict and restart, and no batch would finish.
	var attempts, dirty, overfull, yields atomic.Int64
	swapPool(t, &batchPool, func() any {
		b := newBatchState()
		body := b.updateBody
		yield := func() {
			if b.s == st.shards[1] && yields.Add(-1) >= 0 {
				runtime.Gosched() // mid-batch, ops run: let the writer commit
			}
		}
		b.updateBody = func(tx stm.Tx) error {
			if attempts.Add(1); b.results[0] != (OpResult{}) {
				dirty.Add(1) // a restart: the last attempt ran ops
			}
			err := body(yieldTx{tx, yield})
			if len(b.writes) > len(b.ops) {
				overfull.Add(1)
			}
			return err
		}
		return b
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				// The writer's keys: below the batch's, so that in the
				// sorted bucket chains a lookup of a batch key walks over
				// the links the writer changes.
				k := uint64(i % 256)
				if _, err := st.Put(k, "n"); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Delete(k); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // on one processor: hand it back to the batch
			}
		}()
	}

	batches := 0
	for deadline := time.Now().Add(20 * time.Second); (dirty.Load() < 50 || batches < 20) && time.Now().Before(deadline); batches++ {
		yields.Store(2)
		if _, err := st.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d batches, %d attempts, %d restarted after running ops", batches, attempts.Load(), dirty.Load())
	if dirty.Load() == 0 {
		t.Fatal("no restart after the batch had run ops was provoked")
	}
	if n := overfull.Load(); n != 0 {
		t.Fatalf("%d attempts recorded more writes than the batch has ops", n)
	}
	want := strconv.Itoa(batches * 2 * delta)
	for _, op := range ops {
		if v, _, _ := st.Get(op.Key); v != want {
			t.Fatalf("counter %d = %s after %d batches of two +%d, want %s", op.Key, v, batches, delta, want)
		}
	}
	if ring == 0 {
		return
	}
	// Every batch left one record per shard of exactly its 2*perShard adds,
	// and the writer's records have one entry each: the window's last ring
	// records, which hold the last batches', say so.
	for sh := 0; sh < 2; sh++ {
		head := st.repl.Head(sh)
		recs, ok := st.repl.ReadFrom(sh, max(head, uint64(ring))-uint64(ring)+1, ring, nil)
		if !ok {
			t.Fatalf("shard %d: the window's last %d records are not readable", sh, ring)
		}
		batchRecs := 0
		for _, r := range recs {
			switch len(r.Entries) {
			case 1:
			case 2 * perShard:
				batchRecs++
			default:
				t.Fatalf("shard %d seq %d: a record of %d entries", sh, r.Seq, len(r.Entries))
			}
		}
		if batchRecs == 0 {
			t.Fatalf("shard %d: no batch record among the last %d", sh, len(recs))
		}
	}
}

// TestBatchReadsOwnWrites: a later op of a batch reads what earlier ops of
// the same batch wrote — through the one transaction's write log, on its own
// shard, with other shards' ops before and after it — and never what the
// store held before the batch. Each pattern runs on both engines, on an
// unlogged and on a logged store, with the probe's starting value written by
// the batch itself (the store holding a decoy) and without.
func TestBatchReadsOwnWrites(t *testing.T) {
	patterns := []struct {
		name   string
		before string // the probe's value when the pattern starts
		ops    func(probe uint64) []Op
		want   []OpResult
		after  string // and when it ends; "" for absent
	}{
		{"put-then-get", "old",
			func(p uint64) []Op { return []Op{{Kind: OpPut, Key: p, Value: "new"}, {Kind: OpGet, Key: p}} },
			[]OpResult{{Found: true}, {Value: "new", Found: true}}, "new"},
		{"delete-then-get", "old",
			func(p uint64) []Op { return []Op{{Kind: OpDelete, Key: p}, {Kind: OpGet, Key: p}} },
			[]OpResult{{Found: true}, {}}, ""},
		{"add-add-get", "5",
			func(p uint64) []Op {
				return []Op{{Kind: OpAdd, Key: p, Delta: 2}, {Kind: OpAdd, Key: p, Delta: 3}, {Kind: OpGet, Key: p}}
			},
			[]OpResult{{Value: "7", Found: true}, {Value: "10", Found: true}, {Value: "10", Found: true}}, "10"},
		{"cas on an earlier op's value", "old",
			func(p uint64) []Op {
				return []Op{{Kind: OpPut, Key: p, Value: "a"}, {Kind: OpCAS, Key: p, Old: "a", Value: "b"}, {Kind: OpGet, Key: p}}
			},
			[]OpResult{{Found: true}, {Found: true}, {Value: "b", Found: true}}, "b"},
	}
	for _, cfg := range []Config{
		{Engine: enginecfg.EngineSwiss},
		{Engine: enginecfg.EngineSwiss, ReplRing: 8},
		{Engine: enginecfg.EngineTiny},
		{Engine: enginecfg.EngineTiny, ReplRing: 8},
	} {
		cfg.Shards = 4
		st := openTest(t, cfg)
		probe := shardKeys(st, 2, 1, 0)[0]
		var pad []Op // a put on every other shard
		for _, sh := range []int{0, 1, 3} {
			pad = append(pad, Op{Kind: OpPut, Key: shardKeys(st, sh, 1, 0)[0], Value: "pad"})
		}
		for _, p := range patterns {
			for _, seeded := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/ring=%d/%s/seeded=%v", cfg.Engine, cfg.ReplRing, p.name, seeded), func(t *testing.T) {
					stored := p.before
					ops := append([]Op(nil), pad[:2]...)
					if seeded {
						stored = "999"
						ops = append(ops, Op{Kind: OpPut, Key: probe, Value: p.before})
					}
					if _, err := st.Put(probe, stored); err != nil {
						t.Fatal(err)
					}
					at := len(ops)
					ops = append(ops, p.ops(probe)...)
					ops = append(ops, pad[2], Op{Kind: OpGet, Key: probe})
					res, err := st.Batch(ops)
					if err != nil {
						t.Fatal(err)
					}
					for i, want := range p.want {
						if res[at+i] != want {
							t.Errorf("op %d: got %+v, want %+v", i, res[at+i], want)
						}
					}
					wantLast := OpResult{Value: p.after, Found: p.after != ""}
					if got := res[len(res)-1]; got != wantLast {
						t.Errorf("closing get: got %+v, want %+v", got, wantLast)
					}
					if v, ok, err := st.Get(probe); err != nil || v != p.after || ok != (p.after != "") {
						t.Errorf("stored after the batch: %q %v %v, want %q", v, ok, err, p.after)
					}
				})
			}
		}
	}
}
