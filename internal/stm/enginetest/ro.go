package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
)

// runRO registers the read-only snapshot-mode conformance tests. They are
// part of Run, so both engines pass them under the race detector in CI: an
// RO transaction must behave like an update transaction that happens to
// write nothing — same isolation, same opacity — while doing none of the
// update path's bookkeeping.
func runRO(t *testing.T, factory Factory) {
	t.Run("ROSeesCommitted", func(t *testing.T) { testROSeesCommitted(t, factory) })
	t.Run("ROReadsCompositeValues", func(t *testing.T) { testROReadsComposite(t, factory) })
	t.Run("ROUserAbortNotRetried", func(t *testing.T) { testROUserAbort(t, factory) })
	t.Run("ROSnapshotRestart", func(t *testing.T) { testROSnapshotRestart(t, factory) })
	t.Run("ROLockedWriterNotObserved", func(t *testing.T) { testROLockedWriter(t, factory) })
	t.Run("ROParkedWriterEndsTheAttempt", func(t *testing.T) { testROParkedWriter(t, factory) })
	t.Run("ROInvariantPairNeverTorn", func(t *testing.T) { testROInvariantPair(t, factory) })
	t.Run("RONeverReadsAbortedWrite", func(t *testing.T) { testRONeverReadsAborted(t, factory) })
	t.Run("RONestedSelfLockFails", func(t *testing.T) { testRONestedSelfLock(t, factory) })
}

func testROSeesCommitted(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	v := stm.NewT[int64](7)
	var got int64
	if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		n, err := stm.ReadTRO(tx, v)
		got = n
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("initial RO read = %d, want 7", got)
	}
	if err := th.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, v, int64(8)) }); err != nil {
		t.Fatal(err)
	}
	if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		n, err := stm.ReadTRO(tx, v)
		got = n
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("RO read after update = %d, want 8", got)
	}
}

// testROReadsComposite checks that ReadTRO returns values of any type whole:
// a string, and a struct published both by WriteT's copy and by WriteRefT's
// handed-over cell, each seen exactly as the update transaction wrote it.
func testROReadsComposite(t *testing.T, factory Factory) {
	type pair struct {
		A, B int
		Tag  string
	}
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	s := stm.NewT("init")
	p := stm.NewT(pair{1, 2, "init"})
	q := stm.NewT(pair{})
	cell := &pair{5, 6, "ref"}
	if err := th.Atomically(func(tx stm.Tx) error {
		if err := stm.WriteT(tx, s, "written"); err != nil {
			return err
		}
		if err := stm.WriteT(tx, p, pair{3, 4, "copy"}); err != nil {
			return err
		}
		return stm.WriteRefT(tx, q, cell)
	}); err != nil {
		t.Fatal(err)
	}
	var gs string
	var gp, gq pair
	if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		var err error
		if gs, err = stm.ReadTRO(tx, s); err != nil {
			return err
		}
		if gp, err = stm.ReadTRO(tx, p); err != nil {
			return err
		}
		gq, err = stm.ReadTRO(tx, q)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if gs != "written" {
		t.Errorf("string read = %q, want %q", gs, "written")
	}
	if gp != (pair{3, 4, "copy"}) {
		t.Errorf("WriteT struct read = %+v, want {3 4 copy}", gp)
	}
	if gq != *cell {
		t.Errorf("WriteRefT struct read = %+v, want %+v", gq, *cell)
	}
}

// testROUserAbort pins the user-abort policy of the read-only path: an error
// of the body's own that is not ErrConflict comes back unchanged after one
// attempt, counts as a user abort (not a conflict abort, not a commit), and
// leaves the thread free to rerun the work under the update path, which is
// how a read-only body that finds it must write escalates.
func testROUserAbort(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	v := stm.NewT[int64](1)
	errNeedsWrite := errors.New("needs a write")
	attempts := 0
	err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		attempts++
		if _, err := stm.ReadTRO(tx, v); err != nil {
			return err
		}
		return fmt.Errorf("escalate: %w", errNeedsWrite)
	})
	if !errors.Is(err, errNeedsWrite) {
		t.Fatalf("err = %v, want the body's own error", err)
	}
	if attempts != 1 {
		t.Fatalf("body ran %d times, want 1 (no retry on a user abort)", attempts)
	}
	if st := tm.Stats(); st.UserAborts != 1 || st.Aborts != 0 || st.Commits != 0 {
		t.Fatalf("Stats = %+v, want 1 user abort, no aborts, no commits", st)
	}
	if err := th.Atomically(func(tx stm.Tx) error {
		n, err := stm.ReadT(tx, v)
		if err != nil {
			return err
		}
		return stm.WriteT(tx, v, n+1)
	}); err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		n, err := stm.ReadTRO(tx, v)
		got = n
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("v = %d after the escalated update, want 2", got)
	}
}

// testROSnapshotRestart drives the snapshot protocol deterministically: the
// RO transaction reads x, then a writer commits x and y together, then the
// RO transaction reads y. The second read's version is newer than the
// snapshot, so the attempt must abort and the retry must observe both new
// values — never the torn pair.
func testROSnapshotRestart(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	reader := tm.Register("ro")
	writer := tm.Register("w")
	x := stm.NewT[int](0)
	y := stm.NewT[int](0)
	attempts := 0
	err := reader.AtomicallyRO(func(tx *stm.ROTx) error {
		attempts++
		xv, err := stm.ReadTRO(tx, x)
		if err != nil {
			return err
		}
		if attempts == 1 {
			// Commit x+1, y-1 from the same goroutine, strictly after
			// the read of x and strictly before the read of y.
			if err := writer.Atomically(func(wtx stm.Tx) error {
				if err := stm.WriteT(wtx, x, 1); err != nil {
					return err
				}
				return stm.WriteT(wtx, y, -1)
			}); err != nil {
				return err
			}
		}
		yv, err := stm.ReadTRO(tx, y)
		if err != nil {
			return err
		}
		if xv+yv != 0 {
			t.Errorf("attempt %d observed torn pair x=%d y=%d", attempts, xv, yv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("body ran %d times, want >= 2 (the interleaved commit must restart the snapshot)", attempts)
	}
	if aborts := reader.Ctx().Aborts.Load(); aborts == 0 {
		t.Fatal("reader recorded no aborts despite a forced snapshot restart")
	}
}

// testROLockedWriter checks that an RO transaction never returns the value
// of a write-locked Var — under the tiny engine's write-through protocol
// that in-place value is speculative and must stay invisible until commit.
func testROLockedWriter(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	reader := tm.Register("ro")
	writer := tm.Register("w")
	v := stm.NewT[int64](1)
	locked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	writerDone := make(chan error, 1)
	go func() {
		writerDone <- writer.Atomically(func(tx stm.Tx) error {
			if err := stm.WriteT(tx, v, int64(42)); err != nil {
				return err
			}
			once.Do(func() { close(locked) })
			<-release
			return nil
		})
	}()
	<-locked
	readerDone := make(chan int64, 1)
	go func() {
		var got int64
		err := reader.AtomicallyRO(func(tx *stm.ROTx) error {
			n, err := stm.ReadTRO(tx, v)
			got = n
			return err
		})
		if err != nil {
			t.Error(err)
		}
		readerDone <- got
	}()
	close(release)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	got := <-readerDone
	if got != 1 && got != 42 {
		t.Fatalf("RO read returned %d: neither the pre-image (1) nor the committed value (42) — a speculative in-place value leaked", got)
	}
}

// testROParkedWriter pins where an RO reader waits for a writer: not inside
// the read. A writer is parked holding v's lock for as long as the reader's
// first attempt lasts, so that attempt must end at v — with an abort, not a
// value: under tiny the speculative 42 already sits in the Var — and the
// reader waits in the retry path, where the release (sent only after the
// first read has failed) lets a later attempt return what was committed.
func testROParkedWriter(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	reader := tm.Register("ro")
	writer := tm.Register("w")
	v := stm.NewT[int64](1)
	locked := make(chan struct{})
	release := make(chan struct{})
	var lockOnce, releaseOnce sync.Once
	writerDone := make(chan error, 1)
	go func() {
		writerDone <- writer.Atomically(func(tx stm.Tx) error {
			if err := stm.WriteT(tx, v, int64(42)); err != nil {
				return err
			}
			lockOnce.Do(func() { close(locked) })
			<-release
			return nil
		})
	}()
	<-locked
	attempts := 0
	var got int64
	err := reader.AtomicallyRO(func(tx *stm.ROTx) error {
		attempts++
		n, err := stm.ReadTRO(tx, v)
		if err != nil {
			if n != 0 {
				t.Errorf("attempt %d: failed read returned %d beside its error", attempts, n)
			}
			if !errors.Is(err, stm.ErrConflict) {
				t.Errorf("attempt %d: read of a var locked by another thread: err = %v, want ErrConflict", attempts, err)
			}
			releaseOnce.Do(func() { close(release) })
		}
		got = n
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if got != 42 {
		t.Fatalf("RO read = %d, want 42: the var stayed locked until the first attempt failed, so only the committed value can follow", got)
	}
	if attempts < 2 {
		t.Fatalf("body ran %d times, want >= 2", attempts)
	}
	ctx := reader.Ctx()
	if a, ua := ctx.Aborts.Load(), ctx.UserAborts.Load(); a < 1 || ua != 0 {
		t.Fatalf("reader Aborts = %d, UserAborts = %d, want >= 1 and 0", a, ua)
	}
}

// testRONeverReadsAborted races readers against transactions that write and
// then user-abort: no reader, snapshot-mode or update-path, may ever return
// the aborted speculative value. Under a write-through engine (tiny) the
// speculative value sits in the Var itself between lock and abort-restore,
// and the abort restores the pre-lock orec version — the exact ABA the orec
// incarnation field exists to break.
func testRONeverReadsAborted(t *testing.T, factory Factory) {
	const writers, readers, iters = 2, 2, 1500
	tm := factory(nil, stm.WaitPreemptive)
	v := stm.NewT[int64](0)
	errAbort := fmt.Errorf("deliberate abort")
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		th := tm.Register(fmt.Sprintf("w%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				err := th.Atomically(func(tx stm.Tx) error {
					if err := stm.WriteT(tx, v, 1); err != nil {
						return err
					}
					return errAbort
				})
				if !errors.Is(err, errAbort) {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		roth := tm.Register(fmt.Sprintf("ro%d", i))
		upth := tm.Register(fmt.Sprintf("up%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if err := roth.AtomicallyRO(func(tx *stm.ROTx) error {
					n, err := stm.ReadTRO(tx, v)
					if err != nil {
						return err
					}
					if n != 0 {
						t.Errorf("RO read returned aborted speculative value %d", n)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if err := upth.Atomically(func(tx stm.Tx) error {
					n, err := stm.ReadT(tx, v)
					if err != nil {
						return err
					}
					if n != 0 {
						t.Errorf("update-path read returned aborted speculative value %d", n)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// testRONestedSelfLock pins the defined failure mode of the illegal
// nesting: an RO read of a Var the thread's own enclosing update
// transaction has write-locked fails fast with ErrReadOnlyNested instead of
// spinning on a lock that can never release.
func testRONestedSelfLock(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	v := stm.NewT[int64](5)
	attempts := 0
	err := th.Atomically(func(tx stm.Tx) error {
		if err := stm.WriteT(tx, v, 6); err != nil {
			return err
		}
		// Illegal: same thread, RO transaction over the locked var.
		return th.AtomicallyRO(func(ro *stm.ROTx) error {
			attempts++
			_, err := stm.ReadTRO(ro, v)
			return err
		})
	})
	if !errors.Is(err, stm.ErrReadOnlyNested) {
		t.Fatalf("err = %v, want ErrReadOnlyNested", err)
	}
	// A user abort, decided on the first attempt: one for the RO call, one
	// for the update transaction it took down, and nothing retried.
	ctx := th.Ctx()
	if a, ua := ctx.Aborts.Load(), ctx.UserAborts.Load(); attempts != 1 || a != 0 || ua != 2 {
		t.Fatalf("RO body ran %d times, Aborts = %d, UserAborts = %d; want 1, 0, 2", attempts, a, ua)
	}
	var got int64
	if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		n, err := stm.ReadTRO(tx, v)
		got = n
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("aborted outer write leaked: v = %d, want 5", got)
	}
}

// testROInvariantPair is the concurrency opacity test: writers keep
// x + y == 0 while RO readers assert the invariant inside snapshot
// transactions. A torn (non-snapshot) view would be observed, and the race
// detector additionally checks the publication ordering of the value cells.
func testROInvariantPair(t *testing.T, factory Factory) {
	const writers, readers, iters = 4, 4, 300
	tm := factory(nil, stm.WaitPreemptive)
	x := stm.NewT[int](0)
	y := stm.NewT[int](0)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		th := tm.Register(fmt.Sprintf("w%d", i))
		rng := rand.New(rand.NewSource(int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				d := rng.Intn(100) - 50
				_ = th.Atomically(func(tx stm.Tx) error {
					xv, err := stm.ReadT(tx, x)
					if err != nil {
						return err
					}
					yv, err := stm.ReadT(tx, y)
					if err != nil {
						return err
					}
					if err := stm.WriteT(tx, x, xv+d); err != nil {
						return err
					}
					return stm.WriteT(tx, y, yv-d)
				})
			}
		}()
	}
	for i := 0; i < readers; i++ {
		th := tm.Register(fmt.Sprintf("r%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
					xv, err := stm.ReadTRO(tx, x)
					if err != nil {
						return err
					}
					yv, err := stm.ReadTRO(tx, y)
					if err != nil {
						return err
					}
					if xv+yv != 0 {
						t.Errorf("RO snapshot torn: x=%d y=%d", xv, yv)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
