package tkv

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/stm"
)

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Buckets == 0 {
		cfg.Buckets = 64
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSingleKeyOps(t *testing.T) {
	st := openTest(t, Config{Shards: 4})

	if _, found, err := st.Get(1); err != nil || found {
		t.Fatalf("Get on empty store = %v %v", found, err)
	}
	if created, err := st.Put(1, "a"); err != nil || !created {
		t.Fatalf("Put new = %v %v", created, err)
	}
	if created, err := st.Put(1, "b"); err != nil || created {
		t.Fatalf("Put existing = %v %v", created, err)
	}
	if v, found, err := st.Get(1); err != nil || !found || v != "b" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}

	if swapped, err := st.CAS(1, "a", "c"); err != nil || swapped {
		t.Fatalf("CAS stale = %v %v", swapped, err)
	}
	if swapped, err := st.CAS(1, "b", "c"); err != nil || !swapped {
		t.Fatalf("CAS current = %v %v", swapped, err)
	}
	if swapped, err := st.CAS(99, "", "x"); err != nil || swapped {
		t.Fatalf("CAS missing key = %v %v", swapped, err)
	}

	if deleted, err := st.Delete(1); err != nil || !deleted {
		t.Fatalf("Delete present = %v %v", deleted, err)
	}
	if deleted, err := st.Delete(1); err != nil || deleted {
		t.Fatalf("Delete missing = %v %v", deleted, err)
	}

	if v, err := st.Add(7, 5); err != nil || v != 5 {
		t.Fatalf("Add missing = %d %v", v, err)
	}
	if v, err := st.Add(7, -2); err != nil || v != 3 {
		t.Fatalf("Add existing = %d %v", v, err)
	}
	if _, err := st.Put(8, "not-a-number"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(8, 1); err == nil {
		t.Fatal("Add over non-numeric value did not error")
	}
}

// TestAddOverflowIsUserError: an Add whose sum leaves int64, up or down, is
// a user error that writes nothing, single-key and in a batch, where it
// aborts the whole batch across shards. Both engines.
func TestAddOverflowIsUserError(t *testing.T) {
	const maxVal, minVal = "9223372036854775807", "-9223372036854775808"
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		t.Run(engine, func(t *testing.T) {
			st := openTest(t, Config{Shards: 4, Engine: engine})
			hi, lo, other := uint64(1), uint64(2), uint64(3)
			for other == hi || st.ShardOf(other) == st.ShardOf(hi) {
				other++
			}
			want := map[uint64]string{hi: maxVal, lo: minVal, other: "7"}
			for k, v := range want {
				if _, err := st.Put(k, v); err != nil {
					t.Fatal(err)
				}
			}
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrUser) {
					t.Fatalf("%s: err = %v, want ErrUser", what, err)
				}
				for k, v := range want {
					if got, _, _ := st.Get(k); got != v {
						t.Fatalf("%s: key %d holds %q, want %q", what, k, got, v)
					}
				}
			}
			_, err := st.Add(hi, 1)
			check("Add(MaxInt64, 1)", err)
			_, err = st.Add(lo, -1)
			check("Add(MinInt64, -1)", err)
			_, err = st.Batch([]Op{
				{Kind: OpAdd, Key: other, Delta: 1},
				{Kind: OpAdd, Key: hi, Delta: 1},
			})
			check("batch add(MaxInt64, 1)", err)
			_, err = st.Batch([]Op{
				{Kind: OpPut, Key: other, Value: "8"},
				{Kind: OpAdd, Key: lo, Delta: -2},
			})
			check("batch add(MinInt64, -2)", err)

			// The bounds themselves are reachable.
			if n, err := st.Add(hi, -1); err != nil || n != math.MaxInt64-1 {
				t.Fatalf("Add(MaxInt64, -1) = %d %v", n, err)
			}
			if n, err := st.Add(hi, 1); err != nil || n != math.MaxInt64 {
				t.Fatalf("Add(MaxInt64-1, 1) = %d %v", n, err)
			}
			if res, err := st.Batch([]Op{{Kind: OpAdd, Key: lo, Delta: 0}}); err != nil || res[0].Value != minVal {
				t.Fatalf("batch add(MinInt64, 0) = %+v %v", res, err)
			}
		})
	}
}

func TestBatchSemantics(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	// Spread keys widely so the batch crosses shards.
	keys := []uint64{1, 1000, 123456, 99999999}
	shardSeen := map[int]bool{}
	for _, k := range keys {
		shardSeen[st.ShardOf(k)] = true
	}
	if len(shardSeen) < 2 {
		t.Fatalf("test keys land on %d shard(s); pick better keys", len(shardSeen))
	}

	ops := []Op{
		{Kind: OpPut, Key: keys[0], Value: "v0"},
		{Kind: OpGet, Key: keys[0]}, // sees the batch's own put
		{Kind: OpAdd, Key: keys[1], Delta: 10},
		{Kind: OpAdd, Key: keys[1], Delta: 10}, // compounds within the batch
		{Kind: OpGet, Key: keys[2]},
		{Kind: OpDelete, Key: keys[3]},
	}
	res, err := st.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Found {
		t.Fatal("put reported pre-existing key in empty store")
	}
	if !res[1].Found || res[1].Value != "v0" {
		t.Fatalf("get after put in batch = %+v", res[1])
	}
	if res[2].Value != "10" || res[3].Value != "20" {
		t.Fatalf("adds in batch = %+v %+v", res[2], res[3])
	}
	if res[4].Found {
		t.Fatalf("get of missing key = %+v", res[4])
	}
	if res[5].Found {
		t.Fatalf("delete of missing key = %+v", res[5])
	}
	if v, found, _ := st.Get(keys[1]); !found || v != "20" {
		t.Fatalf("batch adds not applied: %q %v", v, found)
	}

	// Unknown kinds are rejected before anything is written.
	if _, err := st.Batch([]Op{{Kind: OpPut, Key: 5, Value: "x"}, {Kind: OpCAS + 1, Key: 6}}); err == nil {
		t.Fatal("out-of-range batch kind accepted")
	}
	if _, found, _ := st.Get(5); found {
		t.Fatal("rejected batch leaked a write")
	}

	// A validation failure (add over non-numeric) writes nothing, even
	// for ops on other shards.
	if _, err := st.Put(keys[2], "text"); err != nil {
		t.Fatal(err)
	}
	_, err = st.Batch([]Op{
		{Kind: OpPut, Key: keys[0], Value: "overwritten?"},
		{Kind: OpAdd, Key: keys[2], Delta: 1},
	})
	if err == nil {
		t.Fatal("add over non-numeric value in batch did not error")
	}
	if v, _, _ := st.Get(keys[0]); v != "v0" {
		t.Fatalf("failed batch leaked a write: key0=%q", v)
	}
}

// TestBatchSingleShardFastPath runs a batch confined to one shard and
// checks it has the same semantics as a cross-shard one, including
// rollback on user error.
func TestBatchSingleShardFastPath(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	// Find two keys owned by the same shard.
	a := uint64(0)
	b := a + 1
	for st.ShardOf(b) != st.ShardOf(a) {
		b++
	}
	res, err := st.Batch([]Op{
		{Kind: OpPut, Key: a, Value: "x"},
		{Kind: OpGet, Key: a}, // sees the batch's own put via the STM write log
		{Kind: OpAdd, Key: b, Delta: 2},
		{Kind: OpAdd, Key: b, Delta: 2}, // compounds
		{Kind: OpDelete, Key: a},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Found || res[1].Value != "x" {
		t.Fatalf("get after put = %+v", res[1])
	}
	if res[2].Value != "2" || res[3].Value != "4" {
		t.Fatalf("adds = %+v %+v", res[2], res[3])
	}
	if _, found, _ := st.Get(a); found {
		t.Fatal("delete in batch not applied")
	}
	if v, _, _ := st.Get(b); v != "4" {
		t.Fatalf("adds not applied: %q", v)
	}

	// A user error aborts the whole single-shard batch atomically.
	if _, err := st.Put(a, "text"); err != nil {
		t.Fatal(err)
	}
	_, err = st.Batch([]Op{
		{Kind: OpAdd, Key: b, Delta: 100},
		{Kind: OpAdd, Key: a, Delta: 1}, // non-numeric target
	})
	if err == nil {
		t.Fatal("add over non-numeric value accepted")
	}
	if v, _, _ := st.Get(b); v != "4" {
		t.Fatalf("failed single-shard batch leaked a write: %q", v)
	}
}

func TestSnapshotAndLen(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	want := map[uint64]string{}
	for k := uint64(0); k < 200; k++ {
		if _, err := st.Put(k, strconv.FormatUint(k, 10)); err != nil {
			t.Fatal(err)
		}
		want[k] = strconv.FormatUint(k, 10)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d keys, want %d", len(snap), len(want))
	}
	for k, v := range want {
		if snap[k] != v {
			t.Fatalf("snapshot[%d] = %q, want %q", k, snap[k], v)
		}
	}
	n, err := st.Len()
	if err != nil || n != len(want) {
		t.Fatalf("Len = %d %v, want %d", n, err, len(want))
	}

	visited := 0
	err = st.ForEach(func(uint64, string) bool {
		visited++
		return visited < 10
	})
	if err != nil || visited != 10 {
		t.Fatalf("early-stopped ForEach visited %d (%v)", visited, err)
	}
}

func TestShardDistribution(t *testing.T) {
	st := openTest(t, Config{Shards: 8})
	counts := make([]int, st.NumShards())
	for k := uint64(0); k < 8000; k++ {
		counts[st.ShardOf(k)]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("shard %d holds %d of 8000 sequential keys; distribution is skewed: %v", i, c, counts)
		}
	}
}

// forceUpdateAbort runs one update transaction on key's shard that aborts
// exactly once: it reads key, a second pooled thread of the shard commits a
// write of the same value to key, and the first one's own write to key then
// fails validation. The retry commits. key must be present, and no other
// caller may be using the shard's pool.
func forceUpdateAbort(t *testing.T, st *Store, key uint64) {
	t.Helper()
	s := st.shardFor(key)
	attempts := 0
	err := s.atomically(func(tx stm.Tx) error {
		attempts++
		cur, _, err := s.kv.Get(tx, key)
		if err != nil {
			return err
		}
		if attempts == 1 {
			if err := s.atomically(func(tx stm.Tx) error {
				_, err := s.kv.Put(tx, key, cur)
				return err
			}, nil); err != nil {
				return err
			}
		}
		_, err = s.kv.Put(tx, key, cur)
		return err
	}, nil)
	if err != nil || attempts != 2 {
		t.Fatalf("forced abort: err = %v after %d attempts, want nil after 2", err, attempts)
	}
}

// TestZeroLostUpdates hammers counters from many goroutines through every
// read-modify-write path the store serves — Add, CAS increment loops, and
// cross-shard batch adds — on both engines under each serializing
// scheduler, then checks that the sum of all counters equals the number of
// increments that reported success. Any lost update, torn batch or broken
// snapshot cut shows up as a mismatch. One update transaction is made to
// abort up front, so Pool, which serializes the retry of every aborted
// update attempt, must report at least one serialization, and no more than
// the aborts.
func TestZeroLostUpdates(t *testing.T) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		for _, scheduler := range []string{enginecfg.SchedShrink, enginecfg.SchedATS, enginecfg.SchedPool} {
			t.Run(engine+"/"+scheduler, func(t *testing.T) {
				testZeroLostUpdates(t, engine, scheduler)
			})
		}
	}
}

func testZeroLostUpdates(t *testing.T, engine, scheduler string) {
	st := openTest(t, Config{
		Shards:    4,
		PoolSize:  4,
		Engine:    engine,
		Scheduler: scheduler,
	})
	const nKeys = 64
	const workers = 8
	const opsPerWorker = 400

	var succeeded counter
	if _, err := st.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	succeeded.Add(1)
	forceUpdateAbort(t, st, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < opsPerWorker; i++ {
				key := uint64(rng.Intn(nKeys))
				switch rng.Intn(3) {
				case 0: // server-side RMW
					if _, err := st.Add(key, 1); err != nil {
						t.Error(err)
						return
					}
					succeeded.Add(1)
				case 1: // client-side RMW via CAS
					for {
						cur, found, err := st.Get(key)
						if err != nil {
							t.Error(err)
							return
						}
						n := int64(0)
						if found {
							n, err = strconv.ParseInt(cur, 10, 64)
							if err != nil {
								t.Error(err)
								return
							}
							next := strconv.FormatInt(n+1, 10)
							swapped, err := st.CAS(key, cur, next)
							if err != nil {
								t.Error(err)
								return
							}
							if swapped {
								succeeded.Add(1)
								break
							}
							continue // lost the race; retry
						}
						// Key absent: seed it via Add.
						if _, err := st.Add(key, 1); err != nil {
							t.Error(err)
							return
						}
						succeeded.Add(1)
						break
					}
				case 2: // cross-shard batch of adds
					ops := make([]Op, 4)
					for j := range ops {
						ops[j] = Op{Kind: OpAdd, Key: uint64(rng.Intn(nKeys)), Delta: 1}
					}
					if _, err := st.Batch(ops); err != nil {
						t.Error(err)
						return
					}
					succeeded.Add(uint64(len(ops)))
				}
			}
		}()
	}

	// A concurrent snapshot reader asserts mid-run cut sanity:
	// every increment counted before the snapshot started has
	// committed, so the snapshot's sum can never fall below the
	// counter value read beforehand. (The other direction is not
	// checkable mid-run: an increment may commit, and be
	// observed, before its worker bumps the counter.)
	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stopSnap:
				return
			default:
			}
			before := succeeded.Load()
			snap, err := st.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			var sum int64
			for _, v := range snap {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Errorf("non-numeric snapshot value %q", v)
					return
				}
				sum += n
			}
			if sum < int64(before) {
				t.Errorf("lost updates: snapshot sums to %d after %d increments succeeded", sum, before)
				return
			}
		}
	}()

	wg.Wait()
	close(stopSnap)
	snapWG.Wait()
	if t.Failed() {
		return
	}

	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range snap {
		n, _ := strconv.ParseInt(v, 10, 64)
		sum += n
	}
	if sum != int64(succeeded.Load()) {
		t.Fatalf("lost updates: counters sum to %d, %d increments succeeded",
			sum, succeeded.Load())
	}
	stats := st.Stats()
	if stats.Commits == 0 {
		t.Fatal("no committed transactions recorded")
	}
	if scheduler == enginecfg.SchedPool && (stats.Serializations == 0 || stats.Serializations > stats.Aborts) {
		t.Fatalf("pool: serializations = %d with %d aborts, want in [1, aborts]", stats.Serializations, stats.Aborts)
	}
	t.Logf("commits=%d aborts=%d serializations=%d sum=%d",
		stats.Commits, stats.Aborts, stats.Serializations, sum)
}

// TestStripeWaitsReported: a contended gate acquisition shows in the owning
// shard's wait counters and in the store totals, in its mode — a logged Put
// held at a frozen gate (exclusive), a Snapshot's freeze behind a write
// inside the gate (shared), a cross-shard Batch at one frozen gate of its two
// (exclusive) — and in no other shard's.
func TestStripeWaitsReported(t *testing.T) {
	const key = 7
	st := openTest(t, Config{Shards: 2, ReplRing: 8})
	sh := st.ShardOf(key)
	g := &st.shards[sh].gate
	waits := func() (shared, excl uint64) {
		stats := st.Stats()
		for i, ss := range stats.Shards {
			if i != sh && (ss.StripeWaitsShared != 0 || ss.StripeWaitsExcl != 0) {
				t.Fatalf("shard %d reports waits %d/%d; only shard %d was contended",
					i, ss.StripeWaitsShared, ss.StripeWaitsExcl, sh)
			}
		}
		ss := stats.Shards[sh]
		if stats.StripeWaitsShared != ss.StripeWaitsShared || stats.StripeWaitsExcl != ss.StripeWaitsExcl {
			t.Fatalf("store totals %d/%d differ from shard %d's %d/%d",
				stats.StripeWaitsShared, stats.StripeWaitsExcl, sh, ss.StripeWaitsShared, ss.StripeWaitsExcl)
		}
		return ss.StripeWaitsShared, ss.StripeWaitsExcl
	}
	if shared, excl := waits(); shared != 0 || excl != 0 {
		t.Fatalf("fresh store reports waits %d/%d", shared, excl)
	}

	got := make(chan error, 1)
	g.freeze()
	go func() { _, err := st.Put(key, "1"); got <- err }()
	eventually(t, "the Put's exclusive wait is reported", func() bool { _, excl := waits(); return excl == 1 })
	g.unfreeze()
	if err := within(t, "Put", got); err != nil {
		t.Fatal(err)
	}

	// A write inside the gate holds a snapshot's freeze out; the freezes
	// of the other shard, taken in order around it, do not wait.
	g.enter()
	go func() { _, err := st.Snapshot(); got <- err }()
	eventually(t, "the Snapshot's shared wait is reported", func() bool { shared, _ := waits(); return shared == 1 })
	g.exit()
	if err := within(t, "Snapshot", got); err != nil {
		t.Fatal(err)
	}

	// A batch enters every one of its shards' gates; this one crosses
	// shards, and only the frozen shard may report a wait.
	other := uint64(key + 1)
	for st.ShardOf(other) == sh {
		other++
	}
	batch := []Op{{Kind: OpAdd, Key: key, Delta: 1}, {Kind: OpAdd, Key: other, Delta: 1}}
	g.freeze()
	go func() { _, err := st.Batch(batch); got <- err }()
	eventually(t, "the Batch's exclusive wait is reported", func() bool { _, excl := waits(); return excl == 2 })
	g.unfreeze()
	if err := within(t, "Batch", got); err != nil {
		t.Fatal(err)
	}
	if shared, excl := waits(); shared != 1 || excl != 2 {
		t.Fatalf("waits %d/%d after a contended Put, Snapshot and Batch, want 1/2", shared, excl)
	}
}

// TestGateFreezeExcludesSessions: a freeze waits for every writer inside the
// gate and holds new ones out until unfreeze, while writers, however many,
// share it.
func TestGateFreezeExcludesSessions(t *testing.T) {
	var g gate
	g.enter()
	g.enter() // sessions share the gate
	frozen := make(chan struct{})
	go func() { g.freeze(); close(frozen) }()
	select {
	case <-frozen:
		t.Fatal("freeze succeeded with writers inside the gate")
	case <-time.After(20 * time.Millisecond):
	}
	g.exit()
	g.exit()
	within(t, "the freeze after the writers left", frozen)

	entered := make(chan struct{})
	go func() { g.enter(); close(entered) }()
	select {
	case <-entered:
		t.Fatal("a writer entered a frozen gate")
	case <-time.After(20 * time.Millisecond):
	}
	g.unfreeze()
	within(t, "the writer after unfreeze", entered)
	g.exit()
}

// TestGateFreezesExcludeEachOther: a freeze waits out another, counted as a
// shared wait, and a writer held out by a freeze counts as an exclusive wait.
func TestGateFreezesExcludeEachOther(t *testing.T) {
	var g gate
	g.freeze()
	second := make(chan struct{})
	go func() { g.freeze(); g.unfreeze(); close(second) }()
	eventually(t, "the second freeze counts its wait", func() bool {
		shared, _ := g.waits()
		return shared == 1
	})
	select {
	case <-second:
		t.Fatal("two freezes held the gate at once")
	default:
	}
	g.unfreeze()
	within(t, "the second freeze after unfreeze", second)

	g.freeze()
	entered := make(chan struct{})
	go func() { g.enter(); g.exit(); close(entered) }()
	eventually(t, "the held-out writer counts its wait", func() bool {
		_, excl := g.waits()
		return excl == 1
	})
	g.unfreeze()
	within(t, "the writer after unfreeze", entered)
	if shared, excl := g.waits(); shared != 1 || excl != 1 {
		t.Fatalf("waits = %d/%d, want 1/1", shared, excl)
	}
}

func TestMGet(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	for k := uint64(0); k < 50; k++ {
		if _, err := st.Put(k, strconv.FormatUint(k*k, 10)); err != nil {
			t.Fatal(err)
		}
	}

	keys := []uint64{3, 999, 7, 3, 0, 1234567} // shards mixed, one duplicate, two missing
	res, err := st.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(keys) {
		t.Fatalf("MGet returned %d results for %d keys", len(res), len(keys))
	}
	for i, k := range keys {
		if k < 50 {
			want := strconv.FormatUint(k*k, 10)
			if !res[i].Found || res[i].Value != want {
				t.Fatalf("res[%d] (key %d) = %+v, want %q", i, k, res[i], want)
			}
		} else if res[i].Found {
			t.Fatalf("res[%d] (key %d) found a missing key: %+v", i, k, res[i])
		}
	}

	if res, err := st.MGet(nil); err != nil || res != nil {
		t.Fatalf("MGet(nil) = %v %v", res, err)
	}
	stats := st.Stats()
	if stats.Ops.MGets != 2 || stats.Ops.MGetKeys != uint64(len(keys)) {
		t.Fatalf("mget counters = %d/%d, want 2/%d", stats.Ops.MGets, stats.Ops.MGetKeys, len(keys))
	}
}

// TestROFallback checks the adaptive read path mechanism: a restart streak
// at the threshold routes the next read to the logging update path exactly
// once (counted per shard), and a clean read-only read resets the streak.
func TestROFallback(t *testing.T) {
	st := openTest(t, Config{Shards: 2})
	if _, err := st.Put(1, "v"); err != nil {
		t.Fatal(err)
	}
	s := st.shardFor(1)

	s.roStreak.Store(roFallbackStreak)
	if v, found, err := st.Get(1); err != nil || !found || v != "v" {
		t.Fatalf("fallback Get = %q %v %v", v, found, err)
	}
	if n := s.roFallbacks.Load(); n != 1 {
		t.Fatalf("roFallbacks = %d, want 1", n)
	}
	if s.roStreak.Load() != 0 {
		t.Fatal("fallback did not reset the restart streak")
	}

	// Below the threshold the read stays on the RO path, and a clean RO
	// read resets the streak.
	s.roStreak.Store(roFallbackStreak - 1)
	if _, _, err := st.Get(1); err != nil {
		t.Fatal(err)
	}
	if n := s.roFallbacks.Load(); n != 1 {
		t.Fatalf("roFallbacks = %d after sub-threshold read, want 1", n)
	}
	if s.roStreak.Load() != 0 {
		t.Fatal("clean RO read did not reset the streak")
	}

	// MGet shares the adaptive path.
	s.roStreak.Store(roFallbackStreak)
	if res, err := st.MGet([]uint64{1}); err != nil || !res[0].Found {
		t.Fatalf("fallback MGet = %+v %v", res, err)
	}
	total := st.Stats().ROFallbacks
	if total != 2 {
		t.Fatalf("aggregated ROFallbacks = %d, want 2", total)
	}
}

// TestHotReadsStayLive: reads of hot keys finish, whichever path a restart
// streak sends them down. Gets and MGets of 8 hot keys, under 4 writers doing
// Adds and 8-key batches of adds over the same keys, each finish their reads
// before a deadline, and each reader sees every counter only grow.
func TestHotReadsStayLive(t *testing.T) {
	const reads = 2000
	st := openTest(t, Config{Shards: 4})
	hot := make([]uint64, 8)
	batch := make([]Op, len(hot))
	for i := range hot {
		hot[i] = uint64(i)
		batch[i] = Op{Kind: OpAdd, Key: hot[i], Delta: 1}
		if _, err := st.Put(hot[i], "0"); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := w; !stop.Load(); i++ {
				var err error
				if i%2 == 0 {
					_, err = st.Add(hot[i%len(hot)], 1)
				} else {
					_, err = st.Batch(batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		writers.Wait()
	}()

	done := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func() {
			last := make([]int64, len(hot))
			for n := 0; n < reads; n++ {
				var res []OpResult
				if r%2 == 0 {
					j := (n + r) % len(hot)
					v, ok, err := st.Get(hot[j])
					if err != nil {
						done <- err
						return
					}
					res = make([]OpResult, len(hot))
					res[j] = OpResult{Value: v, Found: ok}
				} else {
					var err error
					if res, err = st.MGet(hot); err != nil {
						done <- err
						return
					}
				}
				for i, got := range res {
					if got.Value == "" {
						continue
					}
					v, err := strconv.ParseInt(got.Value, 10, 64)
					if err != nil || v < last[i] {
						done <- fmt.Errorf("key %d read %q after %d", hot[i], got.Value, last[i])
						return
					}
					last[i] = v
				}
			}
			done <- nil
		}()
	}
	deadline := time.After(30 * time.Second)
	for r := 0; r < 4; r++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("%d of 4 readers did not finish %d reads under hot writers", 4-r, reads)
		}
	}
}

func TestOpenRejectsBadSpec(t *testing.T) {
	if _, err := Open(Config{Engine: "bogus"}); err == nil {
		t.Fatal("bogus engine accepted")
	}
	if _, err := Open(Config{Scheduler: "bogus"}); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

// TestOpCounters: each call moves exactly its own Stats().Ops counters,
// whatever its outcome — a miss, a refused batch and a rejected request count
// like a hit, and the miss counters count on top.
func TestOpCounters(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	if _, err := st.Put(1, "a"); err != nil {
		t.Fatal(err)
	}
	want := func(err, target error) error {
		if !errors.Is(err, target) {
			return fmt.Errorf("err = %v, want %v", err, target)
		}
		return nil
	}
	for _, row := range []struct {
		name  string
		call  func() error
		delta OpCounts
	}{
		{"get miss", func() error { _, _, err := st.Get(99); return err }, OpCounts{Gets: 1}},
		{"put", func() error { _, err := st.Put(2, "b"); return err }, OpCounts{Puts: 1}},
		{"delete miss", func() error { _, err := st.Delete(99); return err }, OpCounts{Deletes: 1}},
		{"cas swap", func() error { _, err := st.CAS(1, "a", "b"); return err }, OpCounts{CAS: 1}},
		{"cas miss", func() error { _, err := st.CAS(1, "a", "c"); return err }, OpCounts{CAS: 1, CASMisses: 1}},
		{"add refused", func() error { _, err := st.Add(1, 1); return want(err, ErrUser) }, OpCounts{Adds: 1}},
		{"batch", func() error {
			_, err := st.Batch([]Op{{Kind: OpAdd, Key: 3, Delta: 1}, {Kind: OpGet, Key: 1}})
			return err
		}, OpCounts{Batches: 1, BatchOps: 2}},
		{"batch cas mismatch", func() error {
			_, err := st.Batch([]Op{{Kind: OpAdd, Key: 3, Delta: 1}, {Kind: OpCAS, Key: 1, Old: "a", Value: "c"}})
			return want(err, ErrCASMismatch)
		}, OpCounts{Batches: 1, BatchOps: 2, BatchCASMisses: 1}},
		{"batch bad kind", func() error {
			_, err := st.Batch([]Op{{Kind: OpCAS + 1, Key: 1}})
			return want(err, ErrUser)
		}, OpCounts{Batches: 1, BatchOps: 1}},
		{"mget", func() error { _, err := st.MGet([]uint64{1, 2, 99}); return err }, OpCounts{MGets: 1, MGetKeys: 3}},
		{"len", func() error { _, err := st.Len(); return err }, OpCounts{Snapshots: 1}},
		{"snapshot", func() error { _, err := st.Snapshot(); return err }, OpCounts{Snapshots: 1}},
		{"warm", func() error { st.Warm([]uint64{1, 2, 99}); return nil }, OpCounts{Warmed: 3}},
	} {
		t.Run(row.name, func(t *testing.T) {
			moved := st.Stats().Ops // before the call; after it, the difference
			if err := row.call(); err != nil {
				t.Fatal(err)
			}
			m, after := reflect.ValueOf(&moved).Elem(), reflect.ValueOf(st.Stats().Ops)
			for i := range m.NumField() {
				m.Field(i).SetUint(after.Field(i).Uint() - m.Field(i).Uint())
			}
			if moved != row.delta {
				t.Fatalf("counters moved by %+v, want %+v", moved, row.delta)
			}
		})
	}
}
