package stmds_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stmds"
)

func newThread(t *testing.T) stm.Thread {
	t.Helper()
	return swiss.New(swiss.Options{}).Register("t0")
}

func TestRBTreeBasicOps(t *testing.T) {
	th := newThread(t)
	tree := stmds.NewRBTree[int64]()
	err := th.Atomically(func(tx stm.Tx) error {
		for _, k := range []int64{5, 3, 8, 1, 4, 7, 9} {
			ins, err := tree.Insert(tx, k, k*10)
			if err != nil {
				return err
			}
			if !ins {
				return fmt.Errorf("Insert(%d) reported duplicate", k)
			}
		}
		if ins, err := tree.Insert(tx, 5, int64(999)); err != nil {
			return err
		} else if ins {
			return fmt.Errorf("duplicate insert reported new")
		}
		v, ok, err := tree.Get(tx, 5)
		if err != nil {
			return err
		}
		if !ok || v != 999 {
			return fmt.Errorf("Get(5) = %v,%v", v, ok)
		}
		if ok, err := tree.Contains(tx, 6); err != nil || ok {
			return fmt.Errorf("Contains(6) = %v, %v", ok, err)
		}
		keys, err := tree.Keys(tx)
		if err != nil {
			return err
		}
		want := []int64{1, 3, 4, 5, 7, 8, 9}
		if len(keys) != len(want) {
			return fmt.Errorf("keys = %v", keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				return fmt.Errorf("keys = %v, want %v", keys, want)
			}
		}
		if _, err := tree.CheckInvariants(tx); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeDeleteAll(t *testing.T) {
	th := newThread(t)
	tree := stmds.NewRBTree[int64]()
	const n = 200
	err := th.Atomically(func(tx stm.Tx) error {
		for i := int64(0); i < n; i++ {
			if _, err := tree.Insert(tx, i, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, k := range perm {
		k := int64(k)
		err := th.Atomically(func(tx stm.Tx) error {
			del, err := tree.Delete(tx, k)
			if err != nil {
				return err
			}
			if !del {
				return fmt.Errorf("Delete(%d) missed existing key", k)
			}
			if _, err := tree.CheckInvariants(tx); err != nil {
				return fmt.Errorf("after Delete(%d): %w", k, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err = th.Atomically(func(tx stm.Tx) error {
		size, err := tree.Size(tx)
		if err != nil {
			return err
		}
		if size != 0 {
			return fmt.Errorf("size = %d after deleting everything", size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeDeleteMissing(t *testing.T) {
	th := newThread(t)
	tree := stmds.NewRBTree[int64]()
	err := th.Atomically(func(tx stm.Tx) error {
		if del, err := tree.Delete(tx, 42); err != nil || del {
			return fmt.Errorf("Delete on empty = %v, %v", del, err)
		}
		if _, err := tree.Insert(tx, 1, 0); err != nil {
			return err
		}
		if del, err := tree.Delete(tx, 42); err != nil || del {
			return fmt.Errorf("Delete missing = %v, %v", del, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRBTreeModelProperty drives the tree with random operation sequences
// over key ranges small enough that every shape of repair comes up — a
// deleted leaf, a node with one child, with two and an adjacent or a distant
// successor, the root, a red or a black sibling with each colouring of its
// children — and after every operation compares the answer, the red-black
// invariants, the key sequence and the values against a map model.
func TestRBTreeModelProperty(t *testing.T) {
	for name, tm := range bothEngines() {
		for _, keyRange := range []int{8, 16, 64} {
			t.Run(fmt.Sprintf("%s/range=%d", name, keyRange), func(t *testing.T) {
				th := tm.Register(fmt.Sprintf("model-%d", keyRange))
				for seed := int64(1); seed <= 4; seed++ {
					checkRBTreeAgainstModel(t, th, rand.New(rand.NewSource(seed)), keyRange, 1500)
				}
			})
		}
	}
}

func checkRBTreeAgainstModel(t *testing.T, th stm.Thread, rng *rand.Rand, keyRange, ops int) {
	t.Helper()
	tree := stmds.NewRBTree[int64]()
	model := make(map[int64]int64)
	for op := 0; op < ops; op++ {
		k, kind, val := int64(rng.Intn(keyRange)), rng.Intn(5), int64(op)
		_, existed := model[k]
		err := th.Atomically(func(tx stm.Tx) error {
			switch kind {
			case 0, 1:
				ins, err := tree.Insert(tx, k, val)
				if err == nil && ins == existed {
					err = fmt.Errorf("insert(%d): new=%v, model had it=%v", k, ins, existed)
				}
				return err
			case 2, 3:
				del, err := tree.Delete(tx, k)
				if err == nil && del != existed {
					err = fmt.Errorf("delete(%d): deleted=%v, model had it=%v", k, del, existed)
				}
				return err
			default:
				ok, err := tree.Contains(tx, k)
				if err == nil && ok != existed {
					err = fmt.Errorf("contains(%d): %v, model had it=%v", k, ok, existed)
				}
				return err
			}
		})
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		switch kind {
		case 0, 1:
			model[k] = val
		case 2, 3:
			delete(model, k)
		}
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		err = th.Atomically(func(tx stm.Tx) error {
			if _, err := tree.CheckInvariants(tx); err != nil {
				return err
			}
			keys, err := tree.Keys(tx)
			if err != nil {
				return err
			}
			if !slices.Equal(keys, want) {
				return fmt.Errorf("keys %v, want %v", keys, want)
			}
			if size, err := tree.Size(tx); err != nil || size != len(want) {
				return fmt.Errorf("size %d (%v), want %d", size, err, len(want))
			}
			for _, k := range want {
				if v, ok, err := tree.Get(tx, k); err != nil || !ok || v != model[k] {
					return fmt.Errorf("get(%d) = %d, %v (%v), want %d", k, v, ok, err, model[k])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("after op %d (kind %d, key %d): %v", op, kind, k, err)
		}
	}
}

// TestRBTreeResidentKeysStayReachable: while writers insert and delete the
// odd keys, which rotates, recolours and transplants all over the tree, every
// even key stays where a reader's one snapshot can find it, with its value —
// on the logged read path and on the read-only one. The writers' acknowledged
// inserts and deletes then account for the size.
func TestRBTreeResidentKeysStayReachable(t *testing.T) {
	for name, tm := range bothEngines() {
		t.Run(name, func(t *testing.T) {
			tree := stmds.NewRBTree[int64]()
			residentKeysStayReachable(t, tm, residentOps{
				insert: tree.Insert,
				remove: tree.Delete,
				get:    tree.Get,
				getRO:  tree.GetRO,
				size: func(tx stm.Tx) (int, error) {
					if _, err := tree.CheckInvariants(tx); err != nil {
						return 0, err
					}
					return tree.Size(tx)
				},
			})
		})
	}
}

// residentOps is a keyed structure as residentKeysStayReachable drives it.
type residentOps struct {
	insert func(tx stm.Tx, k, v int64) (bool, error)
	remove func(tx stm.Tx, k int64) (bool, error)
	get    func(tx stm.Tx, k int64) (int64, bool, error)
	getRO  func(tx *stm.ROTx, k int64) (int64, bool, error)
	size   func(tx stm.Tx) (int, error) // after checking what invariants there are
}

// residentKeysStayReachable loads the even keys of a range into an empty
// structure, lets two writers insert and delete the odd ones while a
// read-only and a logging reader look the even ones up, several to a
// transaction, and ends by accounting for the size.
func residentKeysStayReachable(t *testing.T, tm stm.TM, s residentOps) {
	const keyRange, writers, writerOps, perTx = 256, 2, 3000, 8
	resident := func(k int64) int64 { return k*3 + 1 }
	if err := tm.Register("preload").Atomically(func(tx stm.Tx) error {
		for k := int64(0); k < keyRange; k += 2 {
			if _, err := s.insert(tx, k, resident(k)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var net atomic.Int64 // acknowledged inserts minus deletes
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		th := tm.Register(fmt.Sprintf("writer-%d", w))
		rng := rand.New(rand.NewSource(int64(w) + 1))
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < writerOps; i++ {
				if i%32 == 0 {
					runtime.Gosched() // on one processor, let the readers in between
				}
				k, insert := int64(rng.Intn(keyRange/2))*2+1, rng.Intn(2) == 0
				var changed bool
				err := th.Atomically(func(tx stm.Tx) (err error) {
					if insert {
						changed, err = s.insert(tx, k, k)
					} else {
						changed, err = s.remove(tx, k)
					}
					return err
				})
				switch {
				case err != nil:
					t.Error(err)
					return
				case changed && insert:
					net.Add(1)
				case changed:
					net.Add(-1)
				}
			}
		}()
	}
	// look runs one reader transaction over perTx even keys.
	look := func(first int64, get func(k int64) (int64, bool, error)) error {
		for i := int64(0); i < perTx; i++ {
			k := (first + 2*i) % keyRange
			if v, ok, err := get(k); err != nil {
				return err
			} else if !ok || v != resident(k) {
				t.Errorf("resident key %d: got %d, %v", k, v, ok)
			}
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		th := tm.Register(fmt.Sprintf("reader-%d", r))
		readOnly := r == 0
		reading.Add(1)
		go func() {
			defer reading.Done()
			for first := int64(0); !stop.Load() && !t.Failed(); first += 2 * perTx {
				runtime.Gosched() // and the writers back in
				var err error
				if readOnly {
					err = th.AtomicallyRO(func(tx *stm.ROTx) error {
						return look(first, func(k int64) (int64, bool, error) { return s.getRO(tx, k) })
					})
				} else {
					err = th.Atomically(func(tx stm.Tx) error {
						return look(first, func(k int64) (int64, bool, error) { return s.get(tx, k) })
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writing.Wait()
	stop.Store(true)
	reading.Wait()
	if err := tm.Register("checker").Atomically(func(tx stm.Tx) error {
		size, err := s.size(tx)
		if want := keyRange/2 + int(net.Load()); err == nil && size != want {
			err = fmt.Errorf("size %d, want %d resident keys + %d net inserts", size, keyRange/2, net.Load())
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRBTreeConcurrent hammers one tree from several threads on both
// engines and verifies invariants and final consistency.
func TestRBTreeConcurrent(t *testing.T) {
	for name, tm := range bothEngines() {
		t.Run(name, func(t *testing.T) {
			tree := stmds.NewRBTree[int64]()
			const threads, ops, keyRange = 4, 150, 128
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				th := tm.Register(fmt.Sprintf("t%d", i))
				rng := rand.New(rand.NewSource(int64(i) * 977))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < ops; j++ {
						k := int64(rng.Intn(keyRange))
						switch rng.Intn(3) {
						case 0:
							_ = th.Atomically(func(tx stm.Tx) error {
								_, err := tree.Insert(tx, k, k)
								return err
							})
						case 1:
							_ = th.Atomically(func(tx stm.Tx) error {
								_, err := tree.Delete(tx, k)
								return err
							})
						default:
							_ = th.Atomically(func(tx stm.Tx) error {
								_, err := tree.Contains(tx, k)
								return err
							})
						}
					}
				}()
			}
			wg.Wait()
			th := tm.Register("checker")
			err := th.Atomically(func(tx stm.Tx) error {
				_, err := tree.CheckInvariants(tx)
				return err
			})
			if err != nil {
				t.Fatalf("invariants after concurrent run: %v", err)
			}
		})
	}
}

func TestRBTreeSizeMatchesKeys(t *testing.T) {
	th := newThread(t)
	tree := stmds.NewRBTree[int64]()
	err := th.Atomically(func(tx stm.Tx) error {
		for _, k := range []int64{10, 20, 5, 15} {
			if _, err := tree.Insert(tx, k, 0); err != nil {
				return err
			}
		}
		size, err := tree.Size(tx)
		if err != nil {
			return err
		}
		keys, err := tree.Keys(tx)
		if err != nil {
			return err
		}
		if size != len(keys) || size != 4 {
			return fmt.Errorf("size=%d keys=%v", size, keys)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
