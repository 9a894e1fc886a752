package tkv

import (
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"weak"

	"github.com/shrink-tm/shrink/internal/stmds"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// TestDroppedStoreIsCollected: a store that served every pooled path and was
// then closed and dropped is garbage at the next collection, and so are its
// shards' maps. The pools of per-call state are process-wide; an item in one
// that still referenced its store (or a pool embedded in the store, which the
// runtime lists until the second collection after its last use) would keep a
// whole dead store resident into the next one's set-up.
func TestDroppedStoreIsCollected(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"plain", func(*testing.T) Config { return Config{Shards: 4} }},
		{"ring", func(*testing.T) Config { return Config{Shards: 4, ReplRing: 64} }},
		{"wal", func(t *testing.T) Config {
			return Config{Shards: 4, WAL: &tkvwal.Options{Dir: t.TempDir()}}
		}},
		{"admission", func(*testing.T) Config { return Config{Shards: 4, Admission: &AdmitConfig{}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, kvs := serveAndDrop(t, tc.cfg(t))
			runtime.GC()
			if st.Value() != nil {
				t.Fatal("one collection after the last reference went: store alive")
			}
			for i, kv := range kvs {
				if kv.Value() != nil {
					t.Fatalf("one collection after the last reference went: shard %d's map alive", i)
				}
			}
		})
	}
}

// serveAndDrop opens a store, runs every single-key and multi-key call (and
// a checkpoint, with a WAL) through it, closes it and keeps nothing but weak
// pointers to it and to its shards' maps.
func serveAndDrop(t *testing.T, cfg Config) (weak.Pointer[Store], []weak.Pointer[stmds.HashMap[string]]) {
	st := openTest(t, cfg)
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i) * 7919
		if _, err := st.Put(keys[i], "v"); err != nil {
			t.Fatal(err)
		}
	}
	var ops []Op
	for _, k := range keys[:8] {
		ops = append(ops, Op{Kind: OpAdd, Key: k + 1, Delta: 1}, Op{Kind: OpGet, Key: k})
	}
	if _, _, err := st.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CAS(keys[1], "v", "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete(keys[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MGet(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if cfg.WAL != nil {
		if err := st.CheckpointAll(); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	kvs := make([]weak.Pointer[stmds.HashMap[string]], len(st.shards))
	for i, s := range st.shards {
		kvs[i] = weak.Make(s.kv)
	}
	return weak.Make(st), kvs
}

// TestPooledStateAcrossStores interleaves single-key and multi-key calls on
// a 2-shard and a 16-shard store on one processor, so that the same pooled
// opSlot and batchState serve both, the batch state resized between shard
// counts on every switch, and checks every result against a model and both
// stores' snapshots against their models.
func TestPooledStateAcrossStores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back the same state
	var states []*batchState
	swapPool(t, &batchPool, func() any {
		b := newBatchState()
		states = append(states, b)
		return b
	})
	type side struct {
		st    *Store
		model map[uint64]string
	}
	sides := []side{
		{openTest(t, Config{Shards: 2}), map[uint64]string{}},
		{openTest(t, Config{Shards: 16}), map[uint64]string{}},
	}
	check := func(what string, got []OpResult, want []OpResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	for round := 0; round < 40; round++ {
		for si := range sides {
			s := &sides[si]
			name := fmt.Sprintf("round %d, %d shards", round, s.st.NumShards())
			base := uint64(round%5) * 64

			k := base + uint64(si)
			val := "p" + strconv.Itoa(round)
			_, had := s.model[k]
			if created, err := s.st.Put(k, val); err != nil || created == had {
				t.Fatalf("%s: Put(%d) = %v %v, key present before: %v", name, k, created, err, had)
			}
			s.model[k] = val
			if v, ok, err := s.st.Get(k); err != nil || !ok || v != val {
				t.Fatalf("%s: Get(%d) = %q %v %v, want %q", name, k, v, ok, err, val)
			}
			ctr := uint64(1 << 20)
			n, _ := strconv.ParseInt(s.model[ctr], 10, 64)
			if got, err := s.st.Add(ctr, 3); err != nil || got != n+3 {
				t.Fatalf("%s: Add = %d %v, want %d", name, got, err, n+3)
			}
			s.model[ctr] = strconv.FormatInt(n+3, 10)

			// A batch over keys of many shards: on the 16-shard store most of
			// its groups are shards the 2-shard store does not have.
			var ops []Op
			var want []OpResult
			for j := uint64(0); j < 12; j++ {
				bk := base + 2 + j*5
				cur, ok := s.model[bk]
				switch j % 3 {
				case 0:
					nv := fmt.Sprintf("b%d.%d", round, j)
					ops = append(ops, Op{Kind: OpPut, Key: bk, Value: nv})
					want = append(want, OpResult{Found: ok})
					s.model[bk] = nv
				case 1: // a key is always the same kind: these are counters
					c, _ := strconv.ParseInt(cur, 10, 64)
					nv := strconv.FormatInt(c+1, 10)
					ops = append(ops, Op{Kind: OpAdd, Key: bk, Delta: 1})
					want = append(want, OpResult{Found: ok, Value: nv})
					s.model[bk] = nv
				default:
					ops = append(ops, Op{Kind: OpGet, Key: bk})
					want = append(want, OpResult{Found: ok, Value: cur})
				}
			}
			res, err := s.st.Batch(ops)
			if err != nil {
				t.Fatalf("%s: Batch: %v", name, err)
			}
			check(name+": Batch", res, want)

			mkeys := make([]uint64, 0, 24)
			want = want[:0]
			for j := uint64(0); j < 24; j++ {
				mk := base + j*3
				mkeys = append(mkeys, mk)
				v, ok := s.model[mk]
				want = append(want, OpResult{Found: ok, Value: v})
			}
			res, err = s.st.MGet(mkeys)
			if err != nil {
				t.Fatalf("%s: MGet: %v", name, err)
			}
			check(name+": MGet", res, want)

			if round%10 == 9 {
				snap, err := s.st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(snap, s.model) {
					t.Fatalf("%s: snapshot of %d keys differs from the model's %d", name, len(snap), len(s.model))
				}
			}
		}
	}
	if !raceEnabled && len(states) != 1 {
		t.Fatalf("%d batch states built, want one serving both stores", len(states))
	}
}

// swapPool replaces *pool with a fresh pool whose items new builds, for the
// rest of the test. A fresh pool, not a new New on the shared one: the
// shared one would keep handing out the items it already holds.
func swapPool(t *testing.T, pool **sync.Pool, new func() any) {
	old := *pool
	*pool = &sync.Pool{New: new}
	t.Cleanup(func() { *pool = old })
}
