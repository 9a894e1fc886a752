package tiny_test

import (
	"errors"
	"runtime"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/enginetest"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

func factory(s stm.Scheduler, w stm.WaitPolicy) stm.TM {
	return tiny.New(tiny.Options{Scheduler: s, Wait: w})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, "tiny", factory)
}

func TestConformanceBusyWaiting(t *testing.T) {
	enginetest.Run(t, "tiny-busy", func(s stm.Scheduler, _ stm.WaitPolicy) stm.TM {
		return tiny.New(tiny.Options{Scheduler: s, Wait: stm.WaitBusy})
	})
}

func TestWriteThroughRollback(t *testing.T) {
	tm := tiny.New(tiny.Options{})
	th := tm.Register("t0")
	v := stm.NewVar(5)
	errBoom := errors.New("boom")
	err := th.Atomically(func(tx stm.Tx) error {
		if err := tx.Write(v, 42); err != nil {
			return err
		}
		// Write-through: the speculative value is in place while the
		// transaction runs (and the orec is locked).
		if got := v.LoadValue().(int); got != 42 {
			t.Errorf("in-place value = %d, want 42 (write-through)", got)
		}
		if !v.LockedBy(th.ID()) {
			t.Error("orec not locked during write-through")
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The undo log must have restored the original value and orec.
	if got := v.LoadValue().(int); got != 5 {
		t.Fatalf("value after rollback = %d, want 5", got)
	}
	if stm.IsLocked(v.Meta()) {
		t.Fatal("lock leaked after rollback")
	}
}

// TestWriteConflictAbortsTheAsker: tiny's conflict policy is suicide. A
// thread that asks for a Var another transaction holds aborts its own
// attempt and retries; the owner is never doomed and commits untouched,
// even though the asker's transaction began first (under Greedy, the older
// asker would doom the owner).
func TestWriteConflictAbortsTheAsker(t *testing.T) {
	tm := tiny.New(tiny.Options{})
	v := stm.NewVar(0)
	owner := tm.Register("owner")
	asker := tm.Register("asker")

	askerStarted := make(chan struct{})
	locked := make(chan struct{})
	done := make(chan error, 1)
	ownerDoomed := false
	go func() {
		<-askerStarted
		first := true
		done <- owner.Atomically(func(tx stm.Tx) error {
			if err := tx.Write(v, 1); err != nil {
				return err
			}
			if first {
				first = false
				close(locked)
				// Hold the lock until the asker has aborted against it
				// (bounded, in case timing shifts).
				for i := 0; i < 1_000_000 && asker.Ctx().Aborts.Load() == 0; i++ {
					ownerDoomed = ownerDoomed || owner.Ctx().Doomed.Load()
					runtime.Gosched()
				}
				ownerDoomed = ownerDoomed || owner.Ctx().Doomed.Load()
			}
			return nil
		})
	}()
	first := true
	err := asker.Atomically(func(tx stm.Tx) error {
		if first {
			first = false
			close(askerStarted)
			<-locked
		}
		return tx.Write(v, 2)
	})
	if err != nil {
		t.Fatalf("asker: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("owner: %v", err)
	}
	if asker.Ctx().Aborts.Load() == 0 {
		t.Fatal("the asker never aborted against the held lock")
	}
	if ownerDoomed || owner.Ctx().Aborts.Load() != 0 {
		t.Fatalf("owner doomed = %v, aborts = %d; want false and 0", ownerDoomed, owner.Ctx().Aborts.Load())
	}
	if got := v.LoadValue().(int); got != 2 {
		t.Fatalf("final value = %d, want the asker's 2 (it retried past the owner's commit)", got)
	}
}

// TestReadOfHeldVarAbortsTheReader: under write-through the value of a
// write-locked Var is the owner's speculative one, so an update
// transaction that reads it aborts its own attempt (suicide) and leaves the
// owner undoomed, whichever transaction began first.
func TestReadOfHeldVarAbortsTheReader(t *testing.T) {
	tm := tiny.New(tiny.Options{})
	v := stm.NewVar(0)
	owner := tm.Register("owner")
	reader := tm.Register("reader")

	locked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- owner.Atomically(func(tx stm.Tx) error {
			if err := tx.Write(v, 1); err != nil {
				return err
			}
			if first {
				first = false
				close(locked)
				<-release
			}
			return nil
		})
	}()
	<-locked
	first := true
	var firstErr error
	ownerDoomed := false
	var seen int
	err := reader.Atomically(func(tx stm.Tx) error {
		n, err := tx.Read(v)
		if first {
			first = false
			firstErr = err
			ownerDoomed = owner.Ctx().Doomed.Load()
			close(release)
		}
		if err != nil {
			return err
		}
		seen = n.(int)
		return nil
	})
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("owner: %v", err)
	}
	if !errors.Is(firstErr, stm.ErrConflict) || ownerDoomed {
		t.Fatalf("first read of the held Var: err = %v, owner doomed = %v; want ErrConflict and false", firstErr, ownerDoomed)
	}
	if reader.Ctx().Aborts.Load() == 0 || owner.Ctx().Aborts.Load() != 0 {
		t.Fatalf("reader aborts = %d, owner aborts = %d; want > 0 and 0", reader.Ctx().Aborts.Load(), owner.Ctx().Aborts.Load())
	}
	if seen != 1 {
		t.Fatalf("reader saw %d, want the owner's committed 1", seen)
	}
}

func TestUndoOrder(t *testing.T) {
	// Multiple writes to distinct vars must all roll back.
	tm := tiny.New(tiny.Options{})
	th := tm.Register("t0")
	vars := make([]*stm.Var, 8)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	errBoom := errors.New("boom")
	err := th.Atomically(func(tx stm.Tx) error {
		for i, v := range vars {
			if err := tx.Write(v, i*100); err != nil {
				return err
			}
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	for i, v := range vars {
		if got := v.LoadValue().(int); got != i {
			t.Errorf("vars[%d] = %d after rollback, want %d", i, got, i)
		}
		if stm.IsLocked(v.Meta()) {
			t.Errorf("vars[%d] lock leaked", i)
		}
	}
}

func TestProperty(t *testing.T) {
	enginetest.RunProperty(t, factory)
}
