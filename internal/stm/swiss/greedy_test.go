package swiss

import (
	"errors"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
)

// greedyPair starts two transactions by hand, a before b, so a holds the
// earlier Greedy timestamp, and has each write-lock a Var of its own: a
// holds va and b holds vb.
func greedyPair(t *testing.T) (a, b *Thread, va, vb *stm.TVar[int]) {
	t.Helper()
	tm := New(Options{Wait: stm.WaitBusy})
	a = tm.Register("a").(*Thread)
	b = tm.Register("b").(*Thread)
	va, vb = stm.NewT(0), stm.NewT(0)
	a.tx.Begin(0)
	b.tx.Begin(0)
	if stampA, stampB := a.ctx.Priority.Load(), b.ctx.Priority.Load(); stampA == 0 || stampA >= stampB {
		t.Fatalf("stamps a = %d, b = %d: want 0 < a < b", stampA, stampB)
	}
	if err := stm.WriteT(&a.tx, va, 1); err != nil {
		t.Fatal(err)
	}
	if err := stm.WriteT(&b.tx, vb, 1); err != nil {
		t.Fatal(err)
	}
	return a, b, va, vb
}

// TestGreedyOlderWins drives the engine's conflict path by hand, one
// operation at a time: two descriptors, a lock each, and Greedy's verdict
// read off the returned error and the Doomed flags.
func TestGreedyOlderWins(t *testing.T) {
	t.Run("YoungerWriterAbortsItself", func(t *testing.T) {
		a, b, va, _ := greedyPair(t)
		if err := stm.WriteT(&b.tx, va, 2); !errors.Is(err, stm.ErrConflict) || a.ctx.Doomed.Load() {
			t.Fatalf("younger asker: err = %v, owner doomed = %v; want ErrConflict and false", err, a.ctx.Doomed.Load())
		}
	})
	t.Run("YoungerReaderAbortsItself", func(t *testing.T) {
		a, b, va, _ := greedyPair(t)
		if _, err := stm.ReadT(&b.tx, va); !errors.Is(err, stm.ErrConflict) || a.ctx.Doomed.Load() {
			t.Fatalf("younger reader: err = %v, owner doomed = %v; want ErrConflict and false", err, a.ctx.Doomed.Load())
		}
	})
	// The older asker dooms the younger owner and, the lock never coming
	// free here, gives up after its bounded spin.
	t.Run("OlderWriterDoomsOwner", func(t *testing.T) {
		a, b, _, vb := greedyPair(t)
		if err := stm.WriteT(&a.tx, vb, 2); !errors.Is(err, stm.ErrConflict) || !b.ctx.Doomed.Load() {
			t.Fatalf("older asker: err = %v, owner doomed = %v; want ErrConflict and true", err, b.ctx.Doomed.Load())
		}
	})
	t.Run("OlderReaderDoomsOwner", func(t *testing.T) {
		a, b, _, vb := greedyPair(t)
		if _, err := stm.ReadT(&a.tx, vb); !errors.Is(err, stm.ErrConflict) || !b.ctx.Doomed.Load() {
			t.Fatalf("older reader: err = %v, owner doomed = %v; want ErrConflict and true", err, b.ctx.Doomed.Load())
		}
	})
	t.Run("RetryKeepsStamp", func(t *testing.T) {
		_, b, _, _ := greedyPair(t)
		stampB := b.ctx.Priority.Load()
		b.tx.Rollback()
		b.tx.Begin(1)
		if got := b.ctx.Priority.Load(); got != stampB {
			t.Fatalf("retry stamp = %d, want the first attempt's %d", got, stampB)
		}
	})
	t.Run("CommitClearsStamp", func(t *testing.T) {
		a, _, _, _ := greedyPair(t)
		if err := a.tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := a.ctx.Priority.Load(); got != 0 {
			t.Fatalf("stamp after commit = %d, want 0", got)
		}
	})
	// A retry keeps its stamp, so it outranks a transaction that began
	// after its first attempt: b's retry now wins against a's next one.
	t.Run("RetryOutranksLaterTransaction", func(t *testing.T) {
		a, b, va, _ := greedyPair(t)
		b.tx.Rollback()
		b.tx.Begin(1)
		if err := a.tx.Commit(); err != nil {
			t.Fatal(err)
		}
		a.tx.Begin(0)
		if err := stm.WriteT(&a.tx, va, 3); err != nil {
			t.Fatal(err)
		}
		if err := stm.WriteT(&b.tx, va, 4); !errors.Is(err, stm.ErrConflict) || !a.ctx.Doomed.Load() {
			t.Fatalf("retried asker: err = %v, owner doomed = %v; want ErrConflict and true", err, a.ctx.Doomed.Load())
		}
	})
	t.Run("Older", func(t *testing.T) {
		for _, c := range []struct {
			name         string
			mine, theirs uint64
			want         bool
		}{
			{"OwnerYounger", 1, 2, true},
			{"OwnerOlder", 2, 1, false},
			{"OwnerCommitted", 5, 0, true}, // the owner has committed since it took the lock
		} {
			t.Run(c.name, func(t *testing.T) {
				if got := older(c.mine, c.theirs); got != c.want {
					t.Errorf("older(%d, %d) = %v, want %v", c.mine, c.theirs, got, c.want)
				}
			})
		}
	})
}
