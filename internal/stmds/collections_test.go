package stmds_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stmds"
)

func TestHashMapBasic(t *testing.T) {
	th := newThread(t)
	m := stmds.NewHashMap[string](32)
	err := th.Atomically(func(tx stm.Tx) error {
		if ok, err := m.Contains(tx, 1); err != nil || ok {
			return fmt.Errorf("empty map contains 1: %v %v", ok, err)
		}
		if isNew, err := m.Put(tx, 1, "a"); err != nil || !isNew {
			return fmt.Errorf("Put new: %v %v", isNew, err)
		}
		if isNew, err := m.Put(tx, 1, "b"); err != nil || isNew {
			return fmt.Errorf("Put existing: %v %v", isNew, err)
		}
		v, ok, err := m.Get(tx, 1)
		if err != nil || !ok || v != "b" {
			return fmt.Errorf("Get = %v %v %v", v, ok, err)
		}
		if stored, err := m.PutIfAbsent(tx, 1, "c"); err != nil || stored {
			return fmt.Errorf("PutIfAbsent existing: %v %v", stored, err)
		}
		if stored, err := m.PutIfAbsent(tx, 2, "c"); err != nil || !stored {
			return fmt.Errorf("PutIfAbsent new: %v %v", stored, err)
		}
		if del, err := m.Delete(tx, 1); err != nil || !del {
			return fmt.Errorf("Delete existing: %v %v", del, err)
		}
		if del, err := m.Delete(tx, 1); err != nil || del {
			return fmt.Errorf("Delete missing: %v %v", del, err)
		}
		size, err := m.Size(tx)
		if err != nil || size != 1 {
			return fmt.Errorf("Size = %d %v", size, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHashMapResidentKeysStayReachable is the tree's test of that name on a
// 16-bucket map: the writers push odd keys on the front of chains of some
// eight even keys and remove them, copying every node ahead of them. The
// map's Probe is the third reader.
func TestHashMapResidentKeysStayReachable(t *testing.T) {
	for name, tm := range bothEngines() {
		t.Run(name, func(t *testing.T) {
			m := stmds.NewHashMap[int64](16)
			residentKeysStayReachable(t, tm, residentOps{
				insert: func(tx stm.Tx, k, v int64) (bool, error) { return m.Put(tx, uint64(k), v) },
				remove: func(tx stm.Tx, k int64) (bool, error) { return m.Delete(tx, uint64(k)) },
				get:    func(tx stm.Tx, k int64) (int64, bool, error) { return m.Get(tx, uint64(k)) },
				getRO:  func(tx *stm.ROTx, k int64) (int64, bool, error) { return m.GetRO(tx, uint64(k)) },
				size:   m.Size,
				probe:  func(k int64) *int64 { return m.Probe(uint64(k)).Cell() },
			})
		})
	}
}

func TestHashMapKeysComplete(t *testing.T) {
	th := newThread(t)
	m := stmds.NewHashMap[int](8)
	want := map[uint64]bool{3: true, 99: true, 1024: true, 7: true}
	err := th.Atomically(func(tx stm.Tx) error {
		for k := range want {
			if _, err := m.Put(tx, k, 0); err != nil {
				return err
			}
		}
		keys, err := m.Keys(tx)
		if err != nil {
			return err
		}
		if len(keys) != len(want) {
			return fmt.Errorf("keys = %v", keys)
		}
		for _, k := range keys {
			if !want[k] {
				return fmt.Errorf("unexpected key %d", k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortedListBasic(t *testing.T) {
	th := newThread(t)
	l := stmds.NewSortedList[int64]()
	err := th.Atomically(func(tx stm.Tx) error {
		for _, k := range []int64{5, 1, 9, 3} {
			if ins, err := l.Insert(tx, k, k); err != nil || !ins {
				return fmt.Errorf("insert %d: %v %v", k, ins, err)
			}
		}
		if ins, err := l.Insert(tx, 5, 0); err != nil || ins {
			return fmt.Errorf("dup insert: %v %v", ins, err)
		}
		keys, err := l.Keys(tx)
		if err != nil {
			return err
		}
		want := []int64{1, 3, 5, 9}
		for i := range want {
			if keys[i] != want[i] {
				return fmt.Errorf("keys = %v, want sorted %v", keys, want)
			}
		}
		v, ok, err := l.Get(tx, 3)
		if err != nil || !ok || v != 3 {
			return fmt.Errorf("Get(3) = %v %v %v", v, ok, err)
		}
		if del, err := l.Delete(tx, 5); err != nil || !del {
			return fmt.Errorf("delete: %v %v", del, err)
		}
		if ok, err := l.Contains(tx, 5); err != nil || ok {
			return fmt.Errorf("contains after delete: %v %v", ok, err)
		}
		size, err := l.Size(tx)
		if err != nil || size != 3 {
			return fmt.Errorf("size = %d", size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	th := newThread(t)
	q := stmds.NewQueue[int]()
	err := th.Atomically(func(tx stm.Tx) error {
		if _, ok, err := q.Dequeue(tx); err != nil || ok {
			return fmt.Errorf("dequeue empty = %v %v", ok, err)
		}
		for i := 0; i < 5; i++ {
			if err := q.Enqueue(tx, i); err != nil {
				return err
			}
		}
		if size, err := q.Size(tx); err != nil || size != 5 {
			return fmt.Errorf("size = %d", size)
		}
		for i := 0; i < 5; i++ {
			v, ok, err := q.Dequeue(tx)
			if err != nil || !ok || v != i {
				return fmt.Errorf("dequeue %d = %v %v %v", i, v, ok, err)
			}
		}
		if size, err := q.Size(tx); err != nil || size != 0 {
			return fmt.Errorf("final size = %d", size)
		}
		// Refill after drain exercises the tail-reset path.
		if err := q.Enqueue(tx, 42); err != nil {
			return err
		}
		v, ok, err := q.Dequeue(tx)
		if err != nil || !ok || v != 42 {
			return fmt.Errorf("after drain: %v %v %v", v, ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueueConcurrentConservation(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	q := stmds.NewQueue[int]()
	const producers, consumers, perProducer = 3, 3, 100
	var produced, consumed sync.Map
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		th := tm.Register(fmt.Sprintf("p%d", p))
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				item := p*perProducer + i
				_ = th.Atomically(func(tx stm.Tx) error { return q.Enqueue(tx, item) })
				produced.Store(item, true)
			}
		}()
	}
	var consumedCount sync.WaitGroup
	consumedCount.Add(producers * perProducer)
	for c := 0; c < consumers; c++ {
		th := tm.Register(fmt.Sprintf("c%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var item int
				var got bool
				_ = th.Atomically(func(tx stm.Tx) error {
					v, ok, err := q.Dequeue(tx)
					item, got = v, ok
					return err
				})
				if !got {
					// Check whether all items were consumed.
					done := true
					count := 0
					consumed.Range(func(_, _ any) bool { count++; return true })
					if count < producers*perProducer {
						done = false
					}
					if done {
						return
					}
					continue
				}
				if _, dup := consumed.LoadOrStore(item, true); dup {
					t.Errorf("item %v consumed twice", item)
					return
				}
				consumedCount.Done()
			}
		}()
	}
	consumedCount.Wait()
	wg.Wait()
	total := 0
	consumed.Range(func(_, _ any) bool { total++; return true })
	if total != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", total, producers*perProducer)
	}
}

func TestArrayOps(t *testing.T) {
	th := newThread(t)
	a := stmds.NewArray(10, 0)
	f := stmds.NewArray(4, float64(0))
	if a.Len() != 10 || f.Len() != 4 {
		t.Fatalf("len = %d, %d", a.Len(), f.Len())
	}
	err := th.Atomically(func(tx stm.Tx) error {
		if n, err := a.Add(tx, 3, 5); err != nil || n != 5 {
			return fmt.Errorf("Add = %d %v", n, err)
		}
		if n, err := a.Get(tx, 3); err != nil || n != 5 {
			return fmt.Errorf("Get = %d %v", n, err)
		}
		if err := f.Set(tx, 1, 2.5); err != nil {
			return err
		}
		if v, err := f.Add(tx, 1, 1.5); err != nil || v != 4.0 {
			return fmt.Errorf("float Add = %f %v", v, err)
		}
		v, err := f.Get(tx, 1)
		if err != nil || v != 4.0 {
			return fmt.Errorf("float Get = %v %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
