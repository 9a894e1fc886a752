package stm

import (
	"errors"
	"sync/atomic"
	"unsafe"
)

// ErrReadOnlyWrite is returned by a write attempted inside a read-only
// transaction. It is a user abort, not a conflict: the transaction is not
// retried, and the error propagates out of AtomicallyRO unchanged. Callers
// that discover mid-transaction that they need to write must rerun the body
// under the update path (Thread.Atomically).
var ErrReadOnlyWrite = errors.New("stm: write inside a read-only transaction")

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
// Hot paths read through the typed ReadTRO, which inlines into the loop that
// calls it and never waits: an attempt that meets a locked or too-new Var
// ends there, and RunRO's retry path does the waiting. ROTx also implements
// the full Tx interface, so existing read-side code composes with it; reads
// that arrive that way (ReadPtr) wait for a locked Var in place.
//
// A read-only transaction takes no locks and never dooms another thread, so
// it bypasses the scheduler hooks and conflict resolution entirely; it can
// abort only itself.
type ROTx struct {
	core *Core
	ctx  *ThreadCtx
	snap uint64
	// stopped is the Var that ended the attempt in ReadTRO. RunRO clears it
	// before every attempt and takes it after, so it never outlives one.
	stopped *Var
}

var _ Tx = (*ROTx)(nil)

// Bind attaches the descriptor to its engine core and owning thread. Engines
// call it once at thread registration; the descriptor is reused across every
// AtomicallyRO call of that thread.
func (tx *ROTx) Bind(c *Core, t *ThreadCtx) {
	tx.core = c
	tx.ctx = t
}

// Snap returns the attempt's snapshot timestamp (diagnostics and tests).
func (tx *ROTx) Snap() uint64 { return tx.snap }

// ThreadID implements Tx.
func (tx *ROTx) ThreadID() int { return tx.ctx.ID }

// roSpinBound bounds the wait for a writer that holds a lock the read-only
// transaction wants to read past. Timing out is treated as a conflict, and
// the retry starts from a fresh snapshot.
const roSpinBound = 128

// ReadPtr implements Tx: the snapshot-mode read protocol in full, for reads
// that come through the interface. The Var's orec is sampled around the
// pointer load; the read is consistent iff the Var is unlocked and its
// version does not exceed the snapshot. Nothing is logged.
func (tx *ROTx) ReadPtr(v *Var) (unsafe.Pointer, error) {
	for {
		p, meta := v.SnapshotPtr()
		if IsLocked(meta) {
			if OwnerOf(meta) == tx.ctx.ID {
				return nil, ErrReadOnlyNested // see RunRO
			}
			// Released at a version within our snapshot, it validates.
			if tx.core.Wait.SpinWhileLocked(v, tx.ctx.ID, roSpinBound) {
				continue
			}
			return nil, ErrConflict
		}
		if VersionOf(meta) > tx.snap {
			return nil, ErrConflict
		}
		return p, nil
	}
}

// WritePtr implements Tx by rejecting the write: a read-only transaction has
// no write log to buffer into and no commit phase to publish from.
func (tx *ROTx) WritePtr(*Var, unsafe.Pointer) error { return ErrReadOnlyWrite }

// Read implements Tx: the untyped shim over ReadPtr for NewVar-created Vars.
func (tx *ROTx) Read(v *Var) (any, error) {
	p, err := tx.ReadPtr(v)
	if err != nil {
		return nil, err
	}
	return *(*any)(p), nil
}

// Write implements Tx by rejecting the write, like WritePtr.
func (tx *ROTx) Write(*Var, any) error { return ErrReadOnlyWrite }

// ReadTRO is the typed read for read-only transactions, kept under the
// compiler's inlining budget (ci/inline_gate.sh holds it there) by holding
// only the common case: the Var is unlocked, no newer than the snapshot, and
// its orec did not move around the pointer load. Anything else ends the
// attempt — the Var is left on the descriptor for RunRO, which see, and the
// read returns ErrConflict. The value moves as one unboxed pointer word,
// exactly like ReadT.
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
