package stm

import (
	"errors"
	"sync/atomic"
)

// ErrReadOnlyNested is returned by a read-only transaction reading a Var
// that is write-locked by its own thread: AtomicallyRO was nested inside an
// update transaction that wrote the Var. Waiting would deadlock — the lock
// cannot release while control is inside its holder — so the call fails
// immediately, as a user abort (no retry).
var ErrReadOnlyNested = errors.New("stm: read-only transaction read a var write-locked by its own thread (AtomicallyRO nested inside an update transaction)")

// ROTx is the read-only transaction descriptor, shared by both engines: a
// snapshot-mode transaction in the style of TL2's and LSA's read-only modes.
// The whole transaction runs against one snapshot timestamp taken from the
// global clock at begin, and every read validates inline against it — the
// value is consistent iff its Var is unlocked and its version is at most the
// snapshot. So there is no read log and no write index (reads touch only the
// Var itself); commit is empty, and the global clock is loaded once and
// never written; and a read that observes a version newer than the snapshot
// aborts the attempt, the retry taking a fresh snapshot (the update path's
// timestamp extension without the read-log revalidation it needs).
//
// Opacity holds because a writer commits a Var only by unlocking it at the
// commit timestamp, and commit timestamps are handed out by the shared
// clock: every value whose version is <= snap was committed no later than
// the snapshot, so all reads of one attempt belong to the same consistent
// cut. Locked Vars are never read (under the tiny engine's write-through
// protocol the in-place value of a locked Var is speculative).
//
// ROTx is not a Tx: its one read is the typed ReadTRO, which inlines into
// the loop that calls it and never waits (an attempt that meets a locked or
// too-new Var ends there, and RunRO's retry path does the waiting), and it
// has no write at all, so a write inside AtomicallyRO does not compile.
// Callers that discover mid-transaction that they need to write must rerun
// the body under the update path (Thread.Atomically).
//
// A read-only transaction takes no locks and never dooms another thread, so
// it bypasses the scheduler hooks and conflict resolution entirely; it can
// abort only itself.
type ROTx struct {
	snap uint64
	// stopped is the Var that ended the attempt in ReadTRO. RunRO clears it
	// before every attempt and takes it after, so it never outlives one.
	stopped *Var
}

// roSpinBound bounds RunRO's wait for a writer that holds a lock the
// read-only transaction wants to read past. The retry starts from a fresh
// snapshot whether or not the lock was released.
const roSpinBound = 128

// ReadTRO is the typed read for read-only transactions, kept under the
// compiler's inlining budget (`bash ci/gates.sh inline` holds it there) by
// holding only the common case: the Var is unlocked, no newer than the
// snapshot, and its orec did not move around the pointer load. Anything
// else ends the attempt — the Var is left on the descriptor for RunRO, which
// see, and the read returns ErrConflict. The value moves as one unboxed
// pointer word, exactly like ReadT.
func ReadTRO[T any](tx *ROTx, v *TVar[T]) (T, error) {
	m := v.word.meta.Load()
	p := atomic.LoadPointer(&v.word.val)
	if m&lockBit == 0 && m>>verShift <= tx.snap && v.word.meta.Load() == m {
		return *(*T)(p), nil
	}
	tx.stopped = &v.word
	var zero T
	return zero, ErrConflict
}

// ReadRefTRO is ReadTRO returning v's cell without dereferencing it, the
// read-only twin of ReadRefT. It repeats ReadTRO's body rather than sharing
// it, because each must stay under the inlining budget on its own (`bash
// ci/gates.sh inline` holds both there).
func ReadRefTRO[T any](tx *ROTx, v *TVar[T]) (*T, error) {
	m := v.word.meta.Load()
	p := atomic.LoadPointer(&v.word.val)
	if m&lockBit == 0 && m>>verShift <= tx.snap && v.word.meta.Load() == m {
		return (*T)(p), nil
	}
	tx.stopped = &v.word
	return nil, ErrConflict
}

// RunRO executes fn as a read-only snapshot transaction on tx, retrying with
// a fresh snapshot while reads conflict with concurrent writers: the shared
// AtomicallyRO loop. There is no commit phase — a body that returns nil has
// already observed a consistent snapshot — and no scheduler bracketing.
// Commit/abort statistics work as on the update path.
//
// This is where a ReadTRO reader waits: the retry path looks once at the Var
// that ended the attempt. Locked by this very thread (AtomicallyRO nested
// inside an update transaction that wrote it) it cannot be released while
// control is here, so the call fails with ErrReadOnlyNested, a user abort.
// Locked by another thread, the writer gets a bounded spin to finish before
// the fresh snapshot is taken; one merely newer than the snapshot, no wait.
//
// The thread's single descriptor is shared by nested AtomicallyRO calls, so
// the caller's snapshot is saved and restored around the loop: an RO
// transaction opened inside an RO body is its own (possibly newer) snapshot
// transaction, and the outer body's remaining reads keep validating against
// the outer snapshot.
func (c *Core) RunRO(t *ThreadCtx, tx *ROTx, fn func(tx *ROTx) error) error {
	outer := tx.snap
	for attempt := 0; ; attempt++ {
		tx.snap = c.Clock.Now()
		tx.stopped = nil
		err := fn(tx)
		stopped := tx.stopped
		tx.stopped = nil
		if err == nil {
			tx.snap = outer
			t.Commits.Add(1)
			return nil
		}
		if stopped != nil && stopped.LockedBy(t.ID) && errors.Is(err, ErrConflict) {
			err = ErrReadOnlyNested
		}
		if !errors.Is(err, ErrConflict) {
			tx.snap = outer
			t.UserAborts.Add(1)
			return err
		}
		t.Aborts.Add(1)
		if stopped != nil {
			c.Wait.SpinWhileLocked(stopped, t.ID, roSpinBound)
		}
		c.Wait.Backoff(attempt + 1)
	}
}
