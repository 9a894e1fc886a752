package tkv

import (
	"fmt"
	"sync"
	"testing"
)

// batchWorkerOps builds worker w's fixed batch: batchSize adds on a key set
// private to that worker, spread across shards (the keys are far apart, so
// mix64 scatters them), which forces the cross-shard batch path.
func batchWorkerOps(st *Store, w, batchSize int) []Op {
	ops := make([]Op, batchSize)
	shards := map[int]bool{}
	for j := range ops {
		key := uint64(w)*1_000_003 + uint64(j)*7919
		ops[j] = Op{Kind: OpAdd, Key: key, Delta: 1}
		shards[st.ShardOf(key)] = true
	}
	if len(shards) < 2 {
		panic("batch bench keys landed on one shard; pick a different stride")
	}
	return ops
}

// BenchmarkBatchDisjoint measures cross-shard batch throughput when the
// batches are key-disjoint: every worker repeatedly commits a batch of adds
// over its own private key set. Each batch is one transaction whose write
// set no other batch touches, so they commit concurrently and throughput
// should scale with workers.
func BenchmarkBatchDisjoint(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			st, err := Open(Config{Shards: 4, PoolSize: 16, Buckets: 512})
			if err != nil {
				b.Fatal(err)
			}
			opSets := make([][]Op, workers)
			for w := range opSets {
				opSets[w] = batchWorkerOps(st, w, 8)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + workers - 1) / workers
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := st.Batch(opSets[w]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkBatchOverlap is the contended control: every worker's batch adds
// to the same key set, so batches must serialize under any correct design.
// The interesting number is the gap between this and BenchmarkBatchDisjoint.
func BenchmarkBatchOverlap(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			st, err := Open(Config{Shards: 4, PoolSize: 16, Buckets: 512})
			if err != nil {
				b.Fatal(err)
			}
			ops := batchWorkerOps(st, 0, 8)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + workers - 1) / workers
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := st.Batch(ops); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkMGet8 measures one 8-key cross-shard multi-key read, one
// read-only transaction; its one allocation per op is the result slice.
func BenchmarkMGet8(b *testing.B) {
	st, err := Open(Config{Shards: 4, PoolSize: 16, Buckets: 512})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, 8)
	for i, op := range batchWorkerOps(st, 0, len(keys)) {
		keys[i] = op.Key
		if _, err := st.Put(op.Key, "v"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.MGet(keys); err != nil {
			b.Fatal(err)
		}
	}
}
