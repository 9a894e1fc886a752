package swiss_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/enginetest"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
)

func factory(s stm.Scheduler, w stm.WaitPolicy) stm.TM {
	return swiss.New(swiss.Options{Scheduler: s, Wait: w})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, "swiss", factory)
}

func TestConformanceBusyWaiting(t *testing.T) {
	enginetest.Run(t, "swiss-busy", func(s stm.Scheduler, _ stm.WaitPolicy) stm.TM {
		return swiss.New(swiss.Options{Scheduler: s, Wait: stm.WaitBusy})
	})
}

func TestClockAdvancesOnUpdate(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("t0")
	v := stm.NewVar(0)
	before := tm.Clock()
	if err := th.Atomically(func(tx stm.Tx) error { return tx.Write(v, 1) }); err != nil {
		t.Fatal(err)
	}
	if tm.Clock() != before+1 {
		t.Fatalf("clock = %d, want %d", tm.Clock(), before+1)
	}
	// Read-only transactions must not tick the clock.
	if err := th.Atomically(func(tx stm.Tx) error { _, err := tx.Read(v); return err }); err != nil {
		t.Fatal(err)
	}
	if tm.Clock() != before+1 {
		t.Fatalf("read-only tx advanced clock to %d", tm.Clock())
	}
}

func TestVisibleWrites(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("t0")
	v := stm.NewVar(0)
	saw := false
	err := th.Atomically(func(tx stm.Tx) error {
		if err := tx.Write(v, 7); err != nil {
			return err
		}
		// Eager locking makes the write visible to other threads via
		// the orec while the transaction runs.
		saw = v.LockedByOther(999) && v.LockedBy(th.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Fatal("write was not visible (orec not locked) during the transaction")
	}
	if v.LockedBy(th.ID()) {
		t.Fatal("lock leaked after commit")
	}
}

func TestProperty(t *testing.T) {
	enginetest.RunProperty(t, factory)
}

// TestOlderDoomsYoungerEndToEnd runs Greedy on the default options: an
// older transaction writing into a Var held by a younger one dooms the
// younger transaction, which observes the flag, aborts, and retries.
func TestOlderDoomsYoungerEndToEnd(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	v := stm.NewVar(0)
	old := tm.Register("old")
	young := tm.Register("young")

	oldStarted := make(chan struct{})
	youngLocked := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		first := true
		_ = old.Atomically(func(tx stm.Tx) error {
			if first {
				first = false
				close(oldStarted) // old holds the earlier Greedy timestamp
				<-youngLocked
			}
			return tx.Write(v, 1)
		})
	}()
	go func() {
		defer wg.Done()
		<-oldStarted
		first := true
		_ = young.Atomically(func(tx stm.Tx) error {
			if err := tx.Write(v, 2); err != nil {
				return err
			}
			if first {
				first = false
				close(youngLocked)
				// Linger until the older transaction dooms us
				// (bounded, in case timing shifts).
				for i := 0; i < 1_000_000 && !young.Ctx().Doomed.Load(); i++ {
					runtime.Gosched()
				}
			}
			return nil
		})
	}()
	wg.Wait()
	if young.Ctx().Aborts.Load() == 0 {
		t.Fatal("young transaction was never doomed/aborted")
	}
	th := tm.Register("check")
	err := th.Atomically(func(tx stm.Tx) error {
		got, err := tx.Read(v)
		if err != nil {
			return err
		}
		if got.(int) != 1 && got.(int) != 2 {
			return fmt.Errorf("final value = %v, want 1 or 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestYoungerAskerAbortsItselfEndToEnd runs Greedy's other branch on the
// default options: a younger transaction writing into a Var held by an
// older one aborts its own attempt and retries, and the owner is never
// doomed and commits untouched.
func TestYoungerAskerAbortsItselfEndToEnd(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	v := stm.NewVar(0)
	owner := tm.Register("owner")
	asker := tm.Register("asker")

	locked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	ownerDoomed := false
	go func() {
		first := true
		done <- owner.Atomically(func(tx stm.Tx) error {
			if err := tx.Write(v, 1); err != nil {
				return err
			}
			if first {
				first = false
				close(locked) // owner holds the earlier Greedy timestamp
				<-release
				ownerDoomed = owner.Ctx().Doomed.Load()
			}
			return nil
		})
	}()
	<-locked
	first := true
	err := asker.Atomically(func(tx stm.Tx) error {
		err := tx.Write(v, 2)
		if first {
			first = false
			close(release)
		}
		return err
	})
	if err != nil {
		t.Fatalf("asker: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("owner: %v", err)
	}
	if asker.Ctx().Aborts.Load() == 0 {
		t.Fatal("the younger asker never aborted against the held lock")
	}
	if ownerDoomed || owner.Ctx().Aborts.Load() != 0 {
		t.Fatalf("owner doomed = %v, aborts = %d; want false and 0", ownerDoomed, owner.Ctx().Aborts.Load())
	}
	if got := v.LoadValue().(int); got != 2 {
		t.Fatalf("final value = %d, want the asker's 2 (it retried past the owner's commit)", got)
	}
}
