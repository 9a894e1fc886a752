package tkv

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func benchStore(b *testing.B) *Store {
	b.Helper()
	st, err := Open(Config{Shards: 4, PoolSize: 2, Buckets: 128})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 256; k++ {
		if _, err := st.Put(k, fmt.Sprintf("value-%d", k)); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkStoreGet isolates the store below any serving edge: one read-only
// snapshot transaction per Get on the owning shard.
func BenchmarkStoreGet(b *testing.B) {
	st := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := st.Get(uint64(i) & 255); err != nil || !ok {
			b.Fatalf("get: %v %v", ok, err)
		}
	}
}

// BenchmarkGetCohort is what warming a cohort buys below the wire: random
// Gets in cohorts of n, cold and after one Warm of the cohort's keys, on a
// store that fits the caches and on one far larger than them (wire_read's
// shape: 1M keys of 128 B, 4 shards, a bucket per key). Each get copies its
// value out, as the server does into its response frame. ns/op is per get.
func BenchmarkGetCohort(b *testing.B) {
	for _, keys := range []int{4096, 1 << 20} {
		st := cohortStore(b, keys)
		for _, n := range []int{1, 2, 8, 16} {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("keys=%d/cohort=%d/cold", keys, n)
				if warm {
					name = fmt.Sprintf("keys=%d/cohort=%d/warm", keys, n)
				}
				b.Run(name, func(b *testing.B) {
					rng := rand.New(rand.NewPCG(1, uint64(n)))
					cohort := make([]uint64, n)
					buf := make([]byte, 0, 256)
					var sink uint64
					b.ReportAllocs()
					for i := 0; i < b.N; i += n {
						for j := range cohort {
							cohort[j] = rng.Uint64N(uint64(keys))
						}
						if warm {
							sink += st.Warm(cohort)
						}
						for _, k := range cohort {
							v, ok, err := st.Get(k)
							if err != nil || !ok {
								b.Fatalf("get %d: %v %v", k, ok, err)
							}
							buf = append(buf[:0], v...)
						}
					}
					benchSink = sink
				})
			}
		}
	}
}

var benchSink uint64

// cohortStore loads keys 128-byte values, one bucket per key.
func cohortStore(b *testing.B, keys int) *Store {
	b.Helper()
	st, err := Open(Config{Shards: 4, Buckets: keys / 4})
	if err != nil {
		b.Fatal(err)
	}
	blob := make([]byte, 128)
	for k := 0; k < keys; k++ {
		for i := range blob {
			blob[i] = byte(k + i)
		}
		v := string(blob)
		if _, err := st.PutRef(uint64(k), &v); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkStoreMixRead90 is the store-level twin of a read-ratio-0.9 load
// with the serving edge subtracted: 90% Get, 10% Put over 256 keys. This is
// where the read path's per-transaction savings surface as serving
// throughput.
func BenchmarkStoreMixRead90(b *testing.B) {
	st := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 255
		if i%10 == 9 {
			if _, err := st.Put(k, "updated-value"); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, ok, err := st.Get(k); err != nil || !ok {
			b.Fatalf("get: %v %v", ok, err)
		}
	}
}

// BenchmarkStoreMGet measures the batched multi-key read against its
// single-key equivalent: 8 keys per MGet (one RO transaction per touched
// shard) versus 8 separate Gets (8 transactions). Divide ns/op by 8 to
// compare per key.
func BenchmarkStoreMGet(b *testing.B) {
	st := benchStore(b)
	keys := make([]uint64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint64(i*8+j) & 255
		}
		res, err := st.MGet(keys)
		if err != nil {
			b.Fatal(err)
		}
		if !res[0].Found {
			b.Fatalf("missing key %d", keys[0])
		}
	}
}

// BenchmarkStoreSnapshot measures the whole-store consistent cut (what the
// wire protocol's snap serves): per-shard read-only scan transactions over
// every bucket chain.
func BenchmarkStoreSnapshot(b *testing.B) {
	st := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := st.ForEach(func(uint64, string) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != 256 {
			b.Fatalf("snapshot saw %d keys, want 256", n)
		}
	}
}
