package stmds

import (
	"errors"
	"slices"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
)

// TestQueueEndsDisjoint: once a queue holds two elements, an Enqueue and a
// Dequeue write no var in common, and neither reads a var the other writes,
// so the two ends of a queue (intruder's, yada's) do not conflict. With one
// element they meet at its link, as they must.
func TestQueueEndsDisjoint(t *testing.T) {
	th := swiss.New(swiss.Options{}).Register("t0")
	errUndo := errors.New("undo")
	// footprint runs op on q in a transaction that then aborts, so that
	// both ends are measured on the same queue.
	footprint := func(op func(tx stm.Tx) error) countingTx {
		var c countingTx
		if err := th.Atomically(func(tx stm.Tx) error {
			c = countingTx{Tx: tx}
			if err := op(&c); err != nil {
				return err
			}
			return errUndo
		}); !errors.Is(err, errUndo) {
			t.Fatal(err)
		}
		return c
	}
	meet := func(a, b []*stm.Var) bool {
		return slices.ContainsFunc(a, func(v *stm.Var) bool { return slices.Contains(b, v) })
	}
	for _, size := range []int{1, 2, 3, 8} {
		q := NewQueue[int]()
		if err := th.Atomically(func(tx stm.Tx) error {
			for i := range size {
				if err := q.Enqueue(tx, i); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		enq := footprint(func(tx stm.Tx) error { return q.Enqueue(tx, size) })
		deq := footprint(func(tx stm.Tx) error {
			v, ok, err := q.Dequeue(tx)
			if err == nil && (!ok || v != 0) {
				t.Fatalf("size %d: Dequeue = %d, %v, want 0, true", size, v, ok)
			}
			return err
		})
		if len(enq.wrote) == 0 || len(deq.wrote) == 0 {
			t.Fatalf("size %d: Enqueue wrote %d vars, Dequeue %d", size, len(enq.wrote), len(deq.wrote))
		}
		conflict := meet(enq.wrote, deq.wrote) || meet(enq.wrote, deq.read) || meet(deq.wrote, enq.read)
		if size == 1 && !conflict {
			t.Errorf("size 1: Enqueue and Dequeue do not meet at the one element's link")
		}
		if size >= 2 && conflict {
			t.Errorf("size %d: Enqueue (read %d, wrote %d vars) and Dequeue (read %d, wrote %d) share a var one of them writes",
				size, len(enq.read), len(enq.wrote), len(deq.read), len(deq.wrote))
		}
	}
}
