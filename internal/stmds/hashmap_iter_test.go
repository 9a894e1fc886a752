package stmds_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stmds"
)

func TestHashMapForEach(t *testing.T) {
	th := newThread(t)
	m := stmds.NewHashMap[uint64](16)
	want := map[uint64]uint64{}
	err := th.Atomically(func(tx stm.Tx) error {
		for k := uint64(0); k < 40; k++ {
			if _, err := m.Put(tx, k, k*3); err != nil {
				return err
			}
			want[k] = k * 3
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	got := map[uint64]uint64{}
	err = th.Atomically(func(tx stm.Tx) error {
		clear(got)
		return m.ForEach(tx, func(k, v uint64) bool {
			got[k] = v
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d pairs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ForEach[%d] = %d, want %d", k, got[k], v)
		}
	}

	// Early stop: fn returning false ends the iteration.
	visited := 0
	err = th.Atomically(func(tx stm.Tx) error {
		visited = 0
		return m.ForEach(tx, func(uint64, uint64) bool {
			visited++
			return visited < 5
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 5 {
		t.Fatalf("early-stopped ForEach visited %d pairs, want 5", visited)
	}
}

func TestHashMapRange(t *testing.T) {
	th := newThread(t)
	m := stmds.NewHashMap[uint64](16)
	err := th.Atomically(func(tx stm.Tx) error {
		for k := uint64(0); k < 100; k += 2 { // even keys only
			if _, err := m.Put(tx, k, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var keys []uint64
	err = th.Atomically(func(tx stm.Tx) error {
		keys = keys[:0]
		return m.ForEach(tx, func(k, v uint64) bool {
			if k != v {
				t.Errorf("ForEach pair %d=%d", k, v)
			}
			if k >= 10 && k <= 20 {
				keys = append(keys, k)
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	want := []uint64{10, 12, 14, 16, 18, 20}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("keys in [10, 20] = %v, want %v", keys, want)
	}
}

// TestHashMapForEachConcurrentMutation drives a full-map ForEach snapshot
// against a continuously mutating writer that preserves a global invariant
// (the sum of all values is constant: each write transaction moves one unit
// between two keys). Every committed snapshot must observe the exact
// invariant sum — a torn iteration would see a moved unit twice or not at
// all — and the reader must observe at least one abort, covering the
// conflict/retry path of the iterator.
func TestHashMapForEachConcurrentMutation(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	writer := tm.Register("writer")
	reader := tm.Register("reader")
	m := stmds.NewHashMap[int64](16) // small table: iteration overlaps writes

	const nKeys = 32
	const perKey = int64(100)
	err := writer.Atomically(func(tx stm.Tx) error {
		for k := uint64(0); k < nKeys; k++ {
			if _, err := m.Put(tx, k, perKey); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src, dst := uint64(0), uint64(nKeys/2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if src == dst { // a self-move would add, not move, a unit
				dst = (dst + 1) % nKeys
			}
			err := writer.Atomically(func(tx stm.Tx) error {
				a, _, err := m.Get(tx, src)
				if err != nil {
					return err
				}
				b, _, err := m.Get(tx, dst)
				if err != nil {
					return err
				}
				if _, err := m.Put(tx, src, a-1); err != nil {
					return err
				}
				_, err = m.Put(tx, dst, b+1)
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
			src = (src + 1) % nKeys
			dst = (dst + 3) % nKeys
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	snapshots := 0
	for time.Now().Before(deadline) {
		var sum int64
		var count int
		err := reader.Atomically(func(tx stm.Tx) error {
			sum, count = 0, 0
			return m.ForEach(tx, func(_ uint64, v int64) bool {
				sum += v
				count++
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum != nKeys*perKey || count != nKeys {
			t.Fatalf("torn snapshot: sum=%d count=%d, want sum=%d count=%d",
				sum, count, nKeys*perKey, nKeys)
		}
		snapshots++
		if snapshots >= 50 && reader.Ctx().Aborts.Load() > 0 {
			break
		}
	}
	close(stop)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshots completed")
	}
	if reader.Ctx().Aborts.Load() == 0 {
		t.Fatalf("reader observed no aborts in %d snapshots against a busy writer", snapshots)
	}
}
