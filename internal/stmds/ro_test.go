package stmds_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
	"github.com/shrink-tm/shrink/internal/stmds"
)

// bothEngines builds one TM per engine, for the tests of what the engines do
// differently: the RO read protocol, and in-place rewrites of links and
// colours (buffered write-back by one, written through by the other).
func bothEngines() map[string]stm.TM {
	return map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	}
}

// TestHashMapRO drives the RO variants against state built by update
// transactions: lookups, misses, size and range must agree with the update
// path's view.
func TestHashMapRO(t *testing.T) {
	for name, tm := range bothEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			m := stmds.NewHashMap[string](32)
			if err := th.Atomically(func(tx stm.Tx) error {
				for k := uint64(0); k < 100; k += 2 {
					if _, err := m.Put(tx, k, fmt.Sprintf("v%d", k)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
				v, ok, err := m.GetRO(tx, 42)
				if err != nil {
					return err
				}
				if !ok || v != "v42" {
					t.Errorf("GetRO(42) = %q %v", v, ok)
				}
				if _, ok, err := m.GetRO(tx, 43); err != nil || ok {
					t.Errorf("GetRO(43) present: %v %v", ok, err)
				}
				if ok, err := m.ContainsRO(tx, 98); err != nil || !ok {
					t.Errorf("ContainsRO(98) = %v %v", ok, err)
				}
				if ok, err := m.ContainsRO(tx, 99); err != nil || ok {
					t.Errorf("ContainsRO(99) = %v %v", ok, err)
				}
				size, err := m.SizeRO(tx)
				if err != nil || size != 50 {
					t.Errorf("SizeRO = %d %v, want 50", size, err)
				}
				seen := 0
				if err := m.ForEachRO(tx, func(k uint64, v string) bool {
					if v != fmt.Sprintf("v%d", k) {
						t.Errorf("ForEachRO visited %d=%q", k, v)
					}
					if k >= 10 && k <= 20 {
						seen++
					}
					return true
				}); err != nil {
					return err
				}
				if seen != 6 {
					t.Errorf("ForEachRO visited %d pairs in [10, 20], want 6", seen)
				}
				count := 0
				if err := m.ForEachRO(tx, func(uint64, string) bool {
					count++
					return count < 10 // early stop
				}); err != nil {
					return err
				}
				if count != 10 {
					t.Errorf("ForEachRO early stop visited %d, want 10", count)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOrderedStructuresRO covers the RO lookups of the tree and the sorted
// list against the same key set.
func TestOrderedStructuresRO(t *testing.T) {
	for name, tm := range bothEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			tree := stmds.NewRBTree[int64]()
			list := stmds.NewSortedList[int64]()
			if err := th.Atomically(func(tx stm.Tx) error {
				for k := int64(0); k < 64; k += 2 {
					if _, err := tree.Insert(tx, k, k*10); err != nil {
						return err
					}
					if _, err := list.Insert(tx, k, k*10); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
				for k := int64(0); k < 64; k++ {
					want := k%2 == 0
					if v, ok, err := tree.GetRO(tx, k); err != nil || ok != want || (ok && v != k*10) {
						t.Errorf("tree.GetRO(%d) = %d %v %v, want present=%v", k, v, ok, err, want)
					}
					if ok, err := tree.ContainsRO(tx, k); err != nil || ok != want {
						t.Errorf("tree.ContainsRO(%d) = %v %v", k, ok, err)
					}
					if v, ok, err := list.GetRO(tx, k); err != nil || ok != want || (ok && v != k*10) {
						t.Errorf("list.GetRO(%d) = %d %v %v", k, v, ok, err)
					}
					if ok, err := list.ContainsRO(tx, k); err != nil || ok != want {
						t.Errorf("list.ContainsRO(%d) = %v %v", k, ok, err)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHashMapROSnapshotUnderWriters checks the structural opacity the tkv
// snapshot path depends on: a concurrent writer moves a constant total
// between two keys while RO scans assert the total — a torn scan (one key
// old, the other new) would break the sum.
func TestHashMapROSnapshotUnderWriters(t *testing.T) {
	const iters = 400
	for name, tm := range bothEngines() {
		t.Run(name, func(t *testing.T) {
			m := stmds.NewHashMap[int](16)
			wth := tm.Register(name + "-w")
			if err := wth.Atomically(func(tx stm.Tx) error {
				if _, err := m.Put(tx, 1, 100); err != nil {
					return err
				}
				_, err := m.Put(tx, 2, 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					_ = wth.Atomically(func(tx stm.Tx) error {
						a, _, err := m.Get(tx, 1)
						if err != nil {
							return err
						}
						b, _, err := m.Get(tx, 2)
						if err != nil {
							return err
						}
						if _, err := m.Put(tx, 1, a-1); err != nil {
							return err
						}
						_, err = m.Put(tx, 2, b+1)
						return err
					})
				}
			}()
			rth := tm.Register(name + "-r")
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := rth.AtomicallyRO(func(tx *stm.ROTx) error {
						sum := 0
						if err := m.ForEachRO(tx, func(_ uint64, v int) bool {
							sum += v
							return true
						}); err != nil {
							return err
						}
						if sum != 100 {
							t.Errorf("RO scan saw torn total %d, want 100", sum)
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}
