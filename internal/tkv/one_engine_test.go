package tkv

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/stm"
)

// spreadKeys returns perShard keys of every shard of st, shard after shard.
func spreadKeys(st *Store, perShard int) []uint64 {
	var keys []uint64
	for sh := range st.NumShards() {
		keys = append(keys, shardKeys(st, sh, perShard, 1<<30)...)
	}
	return keys
}

// putAll is a batch that puts one token under every key: whoever reads the
// keys must find them all equal, or has seen part of a batch.
func putAll(keys []uint64, token string) []Op {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpPut, Key: k, Value: token}
	}
	return ops
}

// writeTokens runs writers goroutines that put a fresh token under every key
// in one cross-shard batch, over and over, until stop is closed. Each yields
// the processor after every batch, so that on one processor a reader that
// yields gets it back after a batch, not after a time slice.
func writeTokens(t *testing.T, st *Store, keys []uint64, writers int, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Batch(putAll(keys, fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	return &wg
}

// TestMGetAtomicAcrossShards: on an unlogged store, where neither holds a
// stripe, a cross-shard MGet (and a get-only Batch, the same path) never
// sees part of a cross-shard batch. The read body yields the processor as it
// returns, a few times per call, so that on one processor too the writers
// commit while a read is under way: a read split into per-shard transactions
// is caught between two of them.
func TestMGetAtomicAcrossShards(t *testing.T) {
	st := openTest(t, Config{Shards: 4, PoolSize: 4})
	keys := spreadKeys(st, 2)
	if _, err := st.Batch(putAll(keys, "init")); err != nil {
		t.Fatal(err)
	}
	gets := make([]Op, len(keys))
	for i, k := range keys {
		gets[i] = Op{Kind: OpGet, Key: k}
	}

	var yields atomic.Int64
	swapPool(t, &batchPool, func() any {
		b := newBatchState()
		readRO := b.readRO
		b.readRO = func(tx *stm.ROTx) error {
			err := readRO(tx)
			if yields.Add(-1) >= 0 {
				runtime.Gosched()
			}
			return err
		}
		return b
	})

	stop := make(chan struct{})
	writers := writeTokens(t, st, keys, 2, stop)
	for i := 0; i < 2000 && !t.Failed(); i++ {
		yields.Store(3)
		var res []OpResult
		var err error
		if i%2 == 0 {
			res, err = st.MGet(keys)
		} else {
			res, err = st.Batch(gets)
		}
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range res {
			if !r.Found || r.Value != res[0].Value {
				t.Fatalf("read %d saw part of a batch: key %d holds %q, key %d %q",
					i, keys[j], r.Value, keys[0], res[0].Value)
			}
		}
	}
	close(stop)
	writers.Wait()
}

// TestSnapshotNeverSplitsABatch: a snapshot, which reads shard after shard,
// never sees part of a cross-shard batch of an unlogged store: the batch
// holds its shards' session gates, and the snapshot freezes them all. The
// snapshot's callback yields the processor at every pair, so that writers
// run between the shards it reads.
func TestSnapshotNeverSplitsABatch(t *testing.T) {
	st := openTest(t, Config{Shards: 4, PoolSize: 4})
	keys := spreadKeys(st, 2)
	if _, err := st.Batch(putAll(keys, "init")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writers := writeTokens(t, st, keys, 2, stop)
	for i := 0; i < 300 && !t.Failed(); i++ {
		seen := map[string]int{}
		err := st.ForEach(func(_ uint64, v string) bool {
			seen[v]++
			runtime.Gosched()
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 {
			t.Fatalf("snapshot %d saw part of a batch: %v", i, seen)
		}
	}
	close(stop)
	writers.Wait()
}

// TestReadOnlyWaitsOutGateOnlyBatch: a mutating batch of an unlogged store
// holds no stripe, only its shards' session gates; SetReadOnly(true) raised
// while one is inside its transaction returns only after it has committed,
// and the batch, which passed the fence before it went up, succeeds.
func TestReadOnlyWaitsOutGateOnlyBatch(t *testing.T) {
	st := openTest(t, Config{Shards: 2})
	keys := spreadKeys(st, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	var parked atomic.Bool
	swapPool(t, &batchPool, func() any {
		b := newBatchState()
		body := b.updateBody
		b.updateBody = func(tx stm.Tx) error {
			if parked.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
			return body(tx)
		}
		return b
	})

	done := make(chan error, 1)
	go func() {
		_, err := st.Batch([]Op{{Kind: OpAdd, Key: keys[0], Delta: 1}, {Kind: OpAdd, Key: keys[1], Delta: 1}})
		done <- err
	}()
	<-entered
	fenced := make(chan struct{})
	go func() {
		st.SetReadOnly(true)
		close(fenced)
	}()
	select {
	case <-fenced:
		t.Fatal("SetReadOnly(true) returned while a batch that passed the fence was inside its transaction")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := within(t, "the parked batch", done); err != nil {
		t.Fatalf("batch that passed the fence: %v", err)
	}
	within(t, "SetReadOnly", fenced)
	for _, k := range keys {
		if v, _, err := st.Get(k); err != nil || v != "1" {
			t.Fatalf("key %d = %q (%v) after the fence, want the batch's 1", k, v, err)
		}
	}
	if _, err := st.Batch([]Op{{Kind: OpAdd, Key: keys[0], Delta: 1}}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("batch behind the fence: %v, want ErrNotPrimary", err)
	}
}

// TestShardStatsSumToEngine: the store runs one engine, and each shard's
// statistics are those of its own pool's threads — so the shards' counts sum
// to the engine's, and a batch over every shard is one commit, counted on
// the shard whose thread ran it (its first).
func TestShardStatsSumToEngine(t *testing.T) {
	st := openTest(t, Config{Shards: 4})
	for k := uint64(0); k < 64; k++ {
		if _, err := st.Put(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.MGet([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	check := func() []uint64 {
		t.Helper()
		stats, eng := st.Stats(), st.tm.Stats()
		var sum stm.Stats
		commits := make([]uint64, len(stats.Shards))
		for i, ss := range stats.Shards {
			sum.Commits += ss.Commits
			sum.Aborts += ss.Aborts
			sum.UserAborts += ss.UserAborts
			sum.Serializations += ss.Serializations
			commits[i] = ss.Commits
		}
		if sum != eng || stats.Commits != eng.Commits {
			t.Fatalf("shards sum to %+v (store total %d commits), the engine counts %+v", sum, stats.Commits, eng)
		}
		return commits
	}
	before := check()

	keys := spreadKeys(st, 1)
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpAdd, Key: k, Delta: 1}
	}
	if _, err := st.Batch(ops); err != nil {
		t.Fatal(err)
	}
	after := check()
	for i := range after {
		want := before[i]
		if i == st.ShardOf(keys[0]) {
			want++
		}
		if after[i] != want {
			t.Fatalf("a %d-shard batch moved shard %d's commits %d -> %d, want %d",
				len(keys), i, before[i], after[i], want)
		}
	}
}
