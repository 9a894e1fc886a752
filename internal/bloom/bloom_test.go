package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 3)
	keys := make([]uint64, 200)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := New(2048, 2)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyContainsNothing(t *testing.T) {
	f := New(256, 2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if f.Contains(rng.Uint64()) {
			t.Fatal("empty filter claims membership")
		}
	}
}

func TestReset(t *testing.T) {
	f := New(256, 2)
	f.Add(42)
	if !f.Contains(42) {
		t.Fatal("lost key before reset")
	}
	f.Reset()
	if f.Contains(42) {
		t.Fatal("key survived reset")
	}
	for i, w := range f.bits {
		if w != 0 {
			t.Fatalf("word %d = %#x after reset", i, w)
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	f := New(4096, 2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		f.Add(rng.Uint64())
	}
	fp := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		if f.Contains(rng.Uint64()) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.10 {
		t.Fatalf("false positive rate %.3f too high for 200/4096 load", rate)
	}
}

func TestGeometryClamping(t *testing.T) {
	f := New(0, 0)
	if len(f.bits)*64 != 64 {
		t.Fatalf("min size = %d, want 64", len(f.bits)*64)
	}
	f.Add(1)
	if !f.Contains(1) {
		t.Fatal("clamped filter lost key")
	}
	g := New(100, 100) // rounds size up, clamps hashes
	if len(g.bits)*64 != 128 {
		t.Fatalf("size = %d, want 128", len(g.bits)*64)
	}
}

func TestWindowRotation(t *testing.T) {
	w := NewWindow(3, 256, 2)
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
	w.At(0).Add(1) // tx A reads 1
	w.Rotate()
	w.At(0).Add(2) // tx B reads 2
	if !w.At(1).Contains(1) {
		t.Fatal("previous transaction's read set lost after one rotation")
	}
	w.Rotate()
	w.At(0).Add(3) // tx C reads 3
	if !w.At(2).Contains(1) || !w.At(1).Contains(2) {
		t.Fatal("history misordered after two rotations")
	}
	// After a third rotation, tx A's filter is recycled for the new
	// current transaction and must come back empty.
	w.Rotate()
	if w.At(0).Contains(1) {
		t.Fatal("recycled filter not cleared")
	}
	if !w.At(1).Contains(3) || !w.At(2).Contains(2) {
		t.Fatal("history lost after recycling rotation")
	}
}

func TestWindowSingleFilter(t *testing.T) {
	w := NewWindow(1, 64, 1)
	w.At(0).Add(9)
	w.Rotate()
	if w.At(0).Contains(9) {
		t.Fatal("single-filter window must clear on rotate")
	}
}
