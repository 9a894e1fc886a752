package tkv

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/enginecfg"
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
	if _, err := st.Batch([]Op{{Kind: OpPut, Key: 5, Value: "x"}, {Kind: "bogus", Key: 6}}); err == nil {
		t.Fatal("bogus batch kind accepted")
	}
	if _, found, _ := st.Get(5); found {
		t.Fatal("rejected batch leaked a write")
	}

	// A validation failure in phase one (add over non-numeric) writes
	// nothing, even for ops on other shards.
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

// TestBatchSingleShardFastPath runs a batch confined to one shard (the
// one-transaction path that skips the cross-shard two-phase protocol) and
// checks it has the same semantics, including rollback on user error.
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

// TestZeroLostUpdates hammers counters from many goroutines through every
// read-modify-write path the store serves — Add, CAS increment loops, and
// cross-shard batch adds — on both engines with per-shard Shrink attached,
// then checks that the sum of all counters equals the number of increments
// that reported success. Any lost update, torn batch or broken snapshot cut
// shows up as a mismatch.
func TestZeroLostUpdates(t *testing.T) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		t.Run(engine, func(t *testing.T) {
			st := openTest(t, Config{
				Shards:    4,
				PoolSize:  4,
				Engine:    engine,
				Scheduler: enginecfg.SchedShrink,
			})
			const nKeys = 64
			const workers = 8
			const opsPerWorker = 400

			var succeeded counter
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
			t.Logf("%s: commits=%d aborts=%d serializations=%d sum=%d",
				engine, stats.Commits, stats.Aborts, stats.Serializations, sum)
		})
	}
}

// TestLockPlanAscending is the batch lock planner's property: for any key
// set buildLocks yields (shard, stripe) pairs strictly ascending in the
// global lock order — a duplicate would self-deadlock the batch on its own
// stripe, a descent could deadlock two batches on each other — that cover
// exactly the stripes of the keys.
func TestLockPlanAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 300; round++ {
		st := openTest(t, Config{Shards: 1 << rng.Intn(4), LockStripes: 1 << rng.Intn(7), Buckets: 16})
		b := st.batch()
		distinct := 1 + rng.Intn(64)
		want := map[stripeRef]bool{}
		for n := 1 + rng.Intn(64); n > 0; n-- {
			k := uint64(rng.Intn(distinct)) * 0x9e3779b97f4a7c15 // few distinct keys: duplicates
			b.keys = append(b.keys, k)
			sh := st.ShardOf(k)
			want[stripeRef{sh, st.shards[sh].locks.StripeOf(k)}] = true
		}
		b.plan()
		for i, r := range b.locks {
			if !want[r] {
				t.Fatalf("round %d: plan holds %v, the stripe of no key (keys %v)", round, r, b.keys)
			}
			if i > 0 {
				if p := b.locks[i-1]; p.shard > r.shard || p.shard == r.shard && p.stripe >= r.stripe {
					t.Fatalf("round %d: plan not strictly ascending at %d: %v, %v", round, i, p, r)
				}
			}
		}
		if len(b.locks) != len(want) {
			t.Fatalf("round %d: plan has %d stripes, the keys have %d", round, len(b.locks), len(want))
		}
		b.release()
	}

	st := openTest(t, Config{Shards: 4})
	b := st.batch()
	defer b.release()
	for k := uint64(0); k < 100; k++ {
		b.keys = append(b.keys, k, k) // every key twice: heavy duplication
	}
	b.plan()
	plan := b.locks
	// Locking and unlocking the plan must not self-deadlock (dedup) and
	// must leave every stripe free (pairing).
	vers := make([]uint64, st.NumShards())
	for i, s := range st.shards {
		vers[i] = s.locks.Version()
	}
	if !st.lock(plan, vers, true) {
		t.Fatal("exclusive lock refused a fresh plan")
	}
	st.unlock(plan, true)
	if !st.lock(plan, vers, false) {
		t.Fatal("shared lock refused a fresh plan")
	}
	st.unlock(plan, false)
	unlock := st.freezeAll() // would block if a session leaked
	unlock()

	// A stale generation must be refused without holding anything.
	for _, s := range st.shards {
		s.locks.Resize(s.locks.Stripes() * 2)
	}
	if st.lock(plan, vers, true) {
		t.Fatal("exclusive lock accepted a stale plan across a resize")
	}
	unlock = st.freezeAll() // would block if the refusal leaked a hold
	unlock()
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

func TestOpenRejectsBadSpec(t *testing.T) {
	if _, err := Open(Config{Engine: "bogus"}); err == nil {
		t.Fatal("bogus engine accepted")
	}
	if _, err := Open(Config{Scheduler: "bogus"}); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

func TestStatsTable(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Scheduler: enginecfg.SchedShrink})
	if _, err := st.Put(1, "x"); err != nil {
		t.Fatal(err)
	}
	table := st.Stats().Table()
	names := table.SeriesNames()
	if len(names) == 0 {
		t.Fatal("stats table has no series")
	}
}
