// Package microbench contains the paper's red-black tree microbenchmark: an
// integer set over a transactional red-black tree, integer range 16384,
// with 20% or 70% update operations (updates split evenly between inserts
// and deletes, the rest lookups). Figures 7 and 11.
package microbench

import (
	"fmt"
	"math/rand"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
)

// RBTreeWorkload is the red-black tree integer-set benchmark.
type RBTreeWorkload struct {
	// Range is the key range (paper: 16384).
	Range int
	// UpdatePercent is the fraction of update operations in percent
	// (paper: 20 or 70).
	UpdatePercent int
	// ROLookups runs the lookup share of the mix as read-only snapshot
	// transactions (AtomicallyRO) instead of update-path transactions —
	// the engines' TL2/LSA-style read-only mode. Updates are unaffected.
	ROLookups bool

	tree *stmds.RBTree[int64]
}

// NewRBTree returns the workload with the paper's defaults when fields are
// zero (range 16384, 20% updates).
func NewRBTree(keyRange, updatePercent int) *RBTreeWorkload {
	if keyRange <= 0 {
		keyRange = 16384
	}
	if updatePercent <= 0 {
		updatePercent = 20
	}
	return &RBTreeWorkload{Range: keyRange, UpdatePercent: updatePercent}
}

// Name implements harness.Workload.
func (w *RBTreeWorkload) Name() string {
	if w.ROLookups {
		return fmt.Sprintf("rbtree-%d%%-ro", w.UpdatePercent)
	}
	return fmt.Sprintf("rbtree-%d%%", w.UpdatePercent)
}

// Setup fills the set to half capacity, the customary steady-state start.
func (w *RBTreeWorkload) Setup(th stm.Thread) error {
	w.tree = stmds.NewRBTree[int64]()
	rng := rand.New(rand.NewSource(99))
	const batch = 256
	for filled := 0; filled < w.Range/2; {
		if err := th.Atomically(func(tx stm.Tx) error {
			for i := 0; i < batch; i++ {
				k := int64(rng.Intn(w.Range))
				if _, err := w.tree.Insert(tx, k, k); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		filled += batch
	}
	return nil
}

// Op implements harness.Workload: one lookup, insert, or delete.
func (w *RBTreeWorkload) Op(th stm.Thread, rng *rand.Rand) error {
	k := int64(rng.Intn(w.Range))
	p := rng.Intn(100)
	switch {
	case p < w.UpdatePercent/2:
		return th.Atomically(func(tx stm.Tx) error {
			_, err := w.tree.Insert(tx, k, k)
			return err
		})
	case p < w.UpdatePercent:
		return th.Atomically(func(tx stm.Tx) error {
			_, err := w.tree.Delete(tx, k)
			return err
		})
	default:
		if w.ROLookups {
			return th.AtomicallyRO(func(tx *stm.ROTx) error {
				_, err := w.tree.ContainsRO(tx, k)
				return err
			})
		}
		return th.Atomically(func(tx stm.Tx) error {
			_, err := w.tree.Contains(tx, k)
			return err
		})
	}
}
