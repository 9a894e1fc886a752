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

// TestGetOnlyBatchSharesStripes pins the get-only fix: a batch with no
// mutating op holds its stripes in shared mode, so a second get-only batch
// over the same keys completes while the first is parked inside its
// transaction body, and neither ever asks a stripe or a session gate for
// exclusive access.
func TestGetOnlyBatchSharesStripes(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	var ops []Op
	for sh := 0; sh < 3; sh++ {
		for _, k := range shardKeys(st, sh, 2, 0) {
			if _, err := st.Put(k, "v"+strconv.FormatUint(k, 10)); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, Op{Kind: OpGet, Key: k})
		}
	}
	exclBefore := make([]uint64, st.NumShards())
	for i, s := range st.shards {
		_, exclBefore[i] = s.locks.Waits()
	}

	// The first read body to run parks until released.
	var parked atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	st.batches.New = func() any {
		b := newBatchState(st)
		readRO := b.readRO
		b.readRO = func(tx *stm.ROTx) error {
			if parked.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
			return readRO(tx)
		}
		return b
	}
	check := func(res []OpResult, err error) error {
		if err != nil {
			return err
		}
		for i, r := range res {
			if want := "v" + strconv.FormatUint(ops[i].Key, 10); !r.Found || r.Value != want {
				return fmt.Errorf("op %d: got %q, want %q", i, r.Value, want)
			}
		}
		return nil
	}

	first := make(chan error, 1)
	go func() { first <- check(st.Batch(ops)) }()
	<-entered

	second := make(chan error, 1)
	go func() { second <- check(st.Batch(ops)) }()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("get-only batch blocked behind another get-only batch over the same keys")
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i, s := range st.shards {
		if _, excl := s.locks.Waits(); excl != exclBefore[i] {
			t.Fatalf("shard %d: exclusive waits %d -> %d across get-only batches", i, exclBefore[i], excl)
		}
	}
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

// TestBatchAllocBudget is the batch planner's allocation gate: a call
// allocates what it hands away — the result slice, one cell per written
// value, the decimal string of an add — and nothing for its plan.
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
// small batch reads stored values, not the aborted batch's overlay, a
// snapshot shows nothing the aborted batch planned, and a released state
// references none of the values that passed through it.
func TestBatchStateReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back the same state
	st := openTest(t, Config{Shards: 4})
	var states []*batchState
	st.batches.New = func() any {
		b := newBatchState(st)
		states = append(states, b)
		return b
	}
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
	// planned on both and the overlay populated.
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
		{Kind: OpAdd, Key: 1001, Delta: 1}, // mutating, another shard: the overlay path
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
		if b.ops != nil || b.results != nil || len(b.keys) != 0 ||
			b.g != nil || b.s != nil || b.tx != nil || b.roTx != nil {
			t.Fatalf("released state still references its call: %+v", b)
		}
		for _, w := range b.writes[:cap(b.writes)] {
			if w.val != nil {
				t.Fatalf("released state pins a planned value (%d bytes)", len(*w.val))
			}
		}
		for _, c := range b.commits[:cap(b.commits)] {
			if c != nil {
				t.Fatal("released state pins a durability handle")
			}
		}
	}
}

// TestBatchPlanRestartAppliesOnce forces the plan phase's read-only
// transaction to restart after it has already planned writes (the plan body
// yields the processor mid-group while a writer inserts and deletes
// neighbouring keys on the same bucket chains) and checks that a restarted
// body starts clean: every counter receives each batch's deltas exactly once
// and a group never plans more writes than it has ops. Every key is added to
// twice, so the second add reads the first through the overlay: in the small
// case through the scanned window, in the large one through the map, which a
// restart has to drop with the window.
func TestBatchPlanRestartAppliesOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		perShard   int // distinct keys per shard group; each is added to twice
		yieldAbove int // yield mid-group once the window holds more writes than this
	}{
		{"scan", 4, 0},
		{"map", overlayScanMax + 4, overlayScanMax},
	} {
		t.Run(tc.name, func(t *testing.T) { testBatchPlanRestart(t, tc.perShard, tc.yieldAbove) })
	}
}

func testBatchPlanRestart(t *testing.T, perShard, yieldAbove int) {
	st := openTest(t, Config{Shards: 2, Buckets: 16, PoolSize: 4})
	const delta = 3
	var ops []Op
	held := map[stripeRef]bool{}
	for sh := 0; sh < 2; sh++ {
		keys := shardKeys(st, sh, perShard, 1<<20)
		for _, k := range append(keys, keys...) {
			ops = append(ops, Op{Kind: OpAdd, Key: k, Delta: delta})
			held[stripeRef{sh, st.shards[sh].locks.StripeOf(k)}] = true
		}
	}
	// The writer's keys: on the batch's shards, off its stripes, and below
	// its keys, so that in the sorted bucket chains a lookup of a batch key
	// walks over the links the writer changes.
	var noise []uint64
	for k := uint64(0); len(noise) < 256; k++ {
		sh := st.ShardOf(k)
		if !held[stripeRef{sh, st.shards[sh].locks.StripeOf(k)}] {
			noise = append(noise, k)
		}
	}

	// yields is each batch's budget of mid-group yields: unbounded, every
	// attempt would yield, conflict and restart, and no batch would finish.
	var attempts, dirty, overfull, yields atomic.Int64
	st.batches.New = func() any {
		b := newBatchState(st)
		read, plan := b.planned.read, b.planBody
		b.planned.read = func(key uint64) (string, bool, error) {
			if len(b.writes)-b.g.wlo > yieldAbove && yields.Add(-1) >= 0 {
				runtime.Gosched() // mid-group, snapshot taken: let the writer commit
			}
			return read(key)
		}
		b.planBody = func(tx *stm.ROTx) error {
			attempts.Add(1)
			if len(b.writes)-b.g.wlo > yieldAbove {
				dirty.Add(1) // a restart with the last attempt's writes still planned
			}
			err := plan(tx)
			if len(b.writes)-b.g.wlo > b.g.hi-b.g.lo {
				overfull.Add(1)
			}
			return err
		}
		return b
	}

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
				k := noise[i%len(noise)]
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
	t.Logf("%d batches, %d plan attempts, %d restarted with writes planned", batches, attempts.Load(), dirty.Load())
	if dirty.Load() == 0 {
		t.Fatal("no plan-phase restart with planned writes was provoked")
	}
	if n := overfull.Load(); n != 0 {
		t.Fatalf("%d plan attempts left more writes than their group has ops", n)
	}
	want := strconv.Itoa(batches * 2 * delta)
	for _, op := range ops {
		if v, _, _ := st.Get(op.Key); v != want {
			t.Fatalf("counter %d = %s after %d batches of two +%d, want %s", op.Key, v, batches, delta, want)
		}
	}
}

// TestBatchOverlayAcrossThreshold reads a two-phase batch's own writes back
// on both sides of overlayScanMax: up to it a later op finds an earlier op's
// write by scanning the group's window, beyond it through the map built when
// the window outgrew the scan. Each pattern runs with its first write as the
// size-th entry of the window (an overwritten write of the probe key among
// those before it), and again with the window padded to size only after the
// pattern's writes, so that they are planned under the scan and read through
// the map.
func TestBatchOverlayAcrossThreshold(t *testing.T) {
	// A log attached: a batch confined to one shard group still two-phases.
	st := openTest(t, Config{Shards: 2, ReplRing: 8})
	maxWindow := 0
	st.batches.New = func() any {
		b := newBatchState(st)
		plan := b.planBody
		b.planBody = func(tx *stm.ROTx) error {
			err := plan(tx)
			maxWindow = max(maxWindow, len(b.writes)-b.g.wlo)
			return err
		}
		return b
	}
	keys := shardKeys(st, 0, 65, 0)
	probe, fill := keys[0], keys[1:]

	patterns := []struct {
		name   string
		before string // the probe's value when the pattern starts
		ops    []Op
		want   []OpResult
		after  string // and when it ends; "" for absent
	}{
		{"put-then-get", "old",
			[]Op{{Kind: OpPut, Key: probe, Value: "new"}, {Kind: OpGet, Key: probe}},
			[]OpResult{{Found: true}, {Found: true, Value: "new"}}, "new"},
		{"delete-then-get", "old",
			[]Op{{Kind: OpDelete, Key: probe}, {Kind: OpGet, Key: probe}},
			[]OpResult{{Found: true}, {}}, ""},
		{"add-add-get", "5",
			[]Op{{Kind: OpAdd, Key: probe, Delta: 2}, {Kind: OpAdd, Key: probe, Delta: 3}, {Kind: OpGet, Key: probe}},
			[]OpResult{{Found: true, Value: "7"}, {Found: true, Value: "10"}, {Found: true, Value: "10"}}, "10"},
		{"cas on an earlier op's value", "old",
			[]Op{{Kind: OpPut, Key: probe, Value: "a"}, {Kind: OpCAS, Key: probe, Old: "a", Value: "b"}, {Kind: OpGet, Key: probe}},
			[]OpResult{{Found: true}, {Found: true}, {Found: true, Value: "b"}}, "b"},
	}
	for _, p := range patterns {
		for _, size := range []int{1, overlayScanMax, overlayScanMax + 1, 64} {
			for _, padFirst := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/window=%d/padFirst=%v", p.name, size, padFirst), func(t *testing.T) {
					// What the store holds must not show through the
					// overlay: where the batch itself sets the probe's
					// starting value, the store holds a decoy.
					stored := p.before
					var ops []Op
					if padFirst && size > 1 {
						stored = "999"
						ops = append(ops, Op{Kind: OpPut, Key: probe, Value: p.before})
						for _, k := range fill[:size-2] {
							ops = append(ops, Op{Kind: OpPut, Key: k, Value: "pad"})
						}
					}
					if _, err := st.Put(probe, stored); err != nil {
						t.Fatal(err)
					}
					at := len(ops)
					ops = append(ops, p.ops...)
					writes := len(ops)
					for _, op := range p.ops {
						if op.Kind == OpGet {
							writes--
						}
					}
					if !padFirst {
						for _, k := range fill[:max(size-writes, 0)] {
							ops = append(ops, Op{Kind: OpPut, Key: k, Value: "pad"})
							writes++
						}
					}
					ops = append(ops, Op{Kind: OpGet, Key: probe})

					maxWindow = 0
					res, err := st.Batch(ops)
					if err != nil {
						t.Fatal(err)
					}
					if maxWindow != writes || writes < size {
						t.Fatalf("the plan's window held %d writes, built %d for size %d", maxWindow, writes, size)
					}
					for i, want := range p.want {
						if res[at+i] != want {
							t.Errorf("op %d (%s): got %+v, want %+v", i, p.ops[i].Kind, res[at+i], want)
						}
					}
					wantLast := OpResult{Found: p.after != "", Value: p.after}
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
