package tkv

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// warmValue is key k's value in the warm tests: it names its key, and its
// length runs from a few bytes to past warmBytes.
func warmValue(k uint64) string {
	return fmt.Sprintf("%d:%s", k, strings.Repeat("x", int(k*9)))
}

// TestWarmChangesNothing: Warm over present, absent and deleted keys on
// chains of several nodes folds exactly the bytes its rule names (every 64th
// of the first warmBytes and the last of them), allocates nothing, moves no
// counter but Warmed, and given more than WarmMax keys warms the first
// WarmMax.
func TestWarmChangesNothing(t *testing.T) {
	st := openTest(t, Config{Shards: 4, Buckets: 16})
	const present = 64
	var want uint64
	for k := uint64(0); k < present; k++ {
		if _, err := st.Put(k, warmValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < present; k += 5 {
		if _, err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < present; k++ {
		if k%5 == 0 {
			continue
		}
		v := warmValue(k)
		for j := 0; j < len(v) && j < warmBytes; j += 64 {
			want += uint64(v[j])
		}
		want += uint64(v[min(len(v), warmBytes)-1])
	}
	keys := make([]uint64, present+WarmMax) // the last WarmMax are absent
	for i := range keys {
		keys[i] = uint64(i)
	}
	before := st.Stats()
	var got uint64
	for i := 0; i < len(keys); i += WarmMax {
		got += st.Warm(keys[i : i+WarmMax])
	}
	if got != want {
		t.Fatalf("Warm folded %d, want %d", got, want)
	}
	after := st.Stats()
	if after.Ops.Warmed != uint64(len(keys)) {
		t.Fatalf("Warmed = %d, want %d", after.Ops.Warmed, len(keys))
	}
	after.Ops.Warmed = 0
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("Warm moved the stats:\n before %+v\n after  %+v", before, after)
	}
	for k := uint64(0); k < present; k++ {
		v, ok, err := st.Get(k)
		if err != nil || ok != (k%5 != 0) || ok && v != warmValue(k) {
			t.Fatalf("get %d after Warm: %q %v %v", k, v, ok, err)
		}
	}
	w0 := st.Stats().Ops.Warmed
	if all, first := st.Warm(keys), st.Warm(keys[:WarmMax]); all != first {
		t.Fatalf("Warm of %d keys folded %d, of their first %d %d", len(keys), all, WarmMax, first)
	}
	if w := st.Stats().Ops.Warmed - w0; w != 2*WarmMax {
		t.Fatalf("the two calls warmed %d keys, want %d", w, 2*WarmMax)
	}
	if raceEnabled {
		return // the race detector's own allocations are counted
	}
	if n := testing.AllocsPerRun(100, func() { st.Warm(keys) }); n != 0 {
		t.Fatalf("Warm allocates %.1f times per call", n)
	}
}

// TestWarmRacesWriters: Warm walks chains while writers link, unlink and
// replace nodes on them and readers Get the same keys. Under -race this is
// the check that the walk's unvalidated loads are all atomic or of immutable
// fields; without it, that every Get still returns its key's value.
func TestWarmRacesWriters(t *testing.T) {
	st := openTest(t, Config{Shards: 2, Buckets: 16})
	const keys, writerOps = 128, 3000
	var stop atomic.Bool
	var writing, others sync.WaitGroup
	for w := range 2 {
		writing.Add(1)
		go func() {
			defer writing.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for range writerOps {
				k := rng.Uint64N(keys)
				var err error
				if rng.IntN(3) == 0 {
					_, err = st.Delete(k)
				} else {
					_, err = st.Put(k, warmValue(k))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := range 2 {
		others.Add(1)
		go func() {
			defer others.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 2))
			cohort := make([]uint64, 8)
			for !stop.Load() && !t.Failed() {
				for i := range cohort {
					cohort[i] = rng.Uint64N(keys)
				}
				st.Warm(cohort)
				for _, k := range cohort {
					if v, ok, err := st.Get(k); err != nil || ok && v != warmValue(k) {
						t.Errorf("get %d: %q %v %v", k, v, ok, err)
						return
					}
				}
			}
		}()
	}
	writing.Wait()
	stop.Store(true)
	others.Wait()
}
