package stm_test

import (
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
)

// TestWriteIndexLookup exercises the index across the linear-scan /
// open-addressed boundary: every added var must be found at its log
// position, absent vars must miss, at every size.
func TestWriteIndexLookup(t *testing.T) {
	const n = 100 // well past the linear threshold
	var w stm.WriteIndex
	vars := make([]*stm.Var, n)
	for i := range vars {
		vars[i] = stm.NewT(i).Word()
	}
	absent := stm.NewT(-1).Word()
	for i, v := range vars {
		if _, ok := w.Lookup(v); ok {
			t.Fatalf("var %d found before Add", i)
		}
		if got := w.Add(v); got != i {
			t.Fatalf("Add returned position %d, want %d", got, i)
		}
		// After every insertion, all previous entries must resolve.
		for j := 0; j <= i; j++ {
			got, ok := w.Lookup(vars[j])
			if !ok || got != j {
				t.Fatalf("after %d adds: Lookup(vars[%d]) = %d,%v, want %d,true", i+1, j, got, ok, j)
			}
		}
		if _, ok := w.Lookup(absent); ok {
			t.Fatalf("after %d adds: phantom hit for absent var", i+1)
		}
	}
	ws := w.Set()
	if ws.Len() != n {
		t.Fatalf("Set().Len = %d, want %d", ws.Len(), n)
	}
	for i := 0; i < ws.Len(); i++ {
		if ws.At(i) != vars[i] {
			t.Fatalf("Set().At(%d) != vars[%d]", i, i)
		}
	}
}

// TestWriteIndexReset verifies that Reset empties the index (no stale hits
// from the previous transaction, in both the linear and tabled regimes)
// while reusing capacity.
func TestWriteIndexReset(t *testing.T) {
	var w stm.WriteIndex
	old := make([]*stm.Var, 20)
	for i := range old {
		old[i] = stm.NewT(i).Word()
		w.Add(old[i])
	}
	w.Reset()
	if w.Set().Len() != 0 {
		t.Fatalf("after Reset: Set().Len = %d", w.Set().Len())
	}
	var empty stm.WriteSet
	if empty.Len() != 0 {
		t.Fatalf("zero WriteSet Len = %d", empty.Len())
	}
	for i, v := range old {
		if _, ok := w.Lookup(v); ok {
			t.Fatalf("stale hit for old var %d after Reset", i)
		}
	}
	// A fresh small write set must work in the (reverted) linear regime.
	v := stm.NewT(99).Word()
	w.Add(v)
	if got, ok := w.Lookup(v); !ok || got != 0 {
		t.Fatalf("Lookup after Reset = %d,%v, want 0,true", got, ok)
	}
	for i, o := range old {
		if _, ok := w.Lookup(o); ok {
			t.Fatalf("stale hit for old var %d after re-Add", i)
		}
	}
}

// TestWriteSetIterationZeroAllocs pins the zero-copy contract of the hook
// pipeline: building a view over an index and walking it allocates nothing.
func TestWriteSetIterationZeroAllocs(t *testing.T) {
	skipIfRace(t)
	var w stm.WriteIndex
	for i := 0; i < 32; i++ {
		w.Add(stm.NewT(i).Word())
	}
	var sink *stm.Var
	iterate := func() {
		ws := w.Set()
		for i := 0; i < ws.Len(); i++ {
			sink = ws.At(i)
		}
	}
	if allocs := testing.AllocsPerRun(200, iterate); allocs != 0 {
		t.Errorf("WriteSet iteration: %.1f allocs/op, want 0", allocs)
	}
	if sink == nil {
		t.Fatal("iteration did not run")
	}
}
