package stm

import (
	"errors"
	"fmt"
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
// snapshot. That invariant makes a read log, commit-time validation and a
// commit timestamp all unnecessary:
//
//   - no read log and no write index are maintained (reads touch only the
//     Var itself);
//   - commit is empty — there is nothing to validate and nothing to write
//     back, so a read-only transaction never performs an atomic
//     read-modify-write on the global clock (it only loads it once);
//   - a read that observes a version newer than the snapshot aborts the
//     attempt, and the retry re-fetches a fresh snapshot (the moral
//     equivalent of the update path's timestamp extension, without the
//     read-log revalidation that extension needs).
//
// Opacity holds because a writer commits a Var only by unlocking it at the
// commit timestamp, and commit timestamps are handed out by the shared
// clock: every value whose version is <= snap was committed no later than
// the snapshot, so all reads of one attempt belong to the same consistent
// cut. Locked Vars are never read (under the tiny engine's write-through
// protocol the in-place value of a locked Var is speculative).
//
// ROTx implements the full Tx interface so existing read-side code composes
// with it, but hot paths should call its concrete ReadPtr (or the typed
// ReadTRO) directly: a concrete descriptor saves the interface dispatch on
// every hop of a traversal loop. The call itself remains — ReadPtr is past
// the compiler's inlining budget (cost 165 against 80).
//
// A read-only transaction takes no locks and never dooms another thread, so
// it bypasses the scheduler and contention-manager hooks entirely; it can
// abort only itself, and only because a concurrent writer committed past its
// snapshot.
type ROTx struct {
	core *Core
	ctx  *ThreadCtx
	snap uint64
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

// ReadPtr implements Tx: the snapshot-mode read protocol. The Var's orec is
// sampled around the pointer load; the read is consistent iff the Var is
// unlocked and its version does not exceed the snapshot. Nothing is logged.
func (tx *ROTx) ReadPtr(v *Var) (unsafe.Pointer, error) {
	for {
		p, meta := v.SnapshotPtr()
		if IsLocked(meta) {
			if OwnerOf(meta) == tx.ctx.ID {
				// Locked by this thread's own enclosing update
				// transaction; spinning would never terminate.
				return nil, ErrReadOnlyNested
			}
			// A writer is mid-flight on this Var. Wait briefly for it
			// to finish: if it commits at or before our snapshot (its
			// commit timestamp predates our begin), the re-read will
			// validate; otherwise the version check aborts us.
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

// ReadTRO is the typed read for read-only transactions: ReadT over the
// concrete descriptor, so the snapshot validation is a direct call to
// ReadPtr instead of one through the Tx interface (it does not inline; see
// ROTx). The value moves as one unboxed pointer word, exactly like ReadT.
func ReadTRO[T any](tx *ROTx, v *TVar[T]) (T, error) {
	p, err := tx.ReadPtr(&v.word)
	if err != nil {
		var zero T
		return zero, err
	}
	return *(*T)(p), nil
}

// RunRO executes fn as a read-only snapshot transaction on tx, retrying with
// a fresh snapshot while reads conflict with concurrent writers: the shared
// AtomicallyRO loop. There is no commit phase — a body that returns nil has
// already observed a consistent snapshot — and no scheduler or
// contention-manager bracketing (the transaction holds no locks, so it can
// neither be an enemy nor name one). Commit/abort statistics are maintained
// as on the update path, and MaxRetry bounds livelock against a write-heavy
// antagonist the same way.
//
// The thread's single descriptor is shared by nested AtomicallyRO calls, so
// the caller's snapshot is saved and restored around the loop: an RO
// transaction opened inside an RO body is simply its own (possibly newer)
// snapshot transaction, and the outer body's remaining reads keep
// validating against the outer snapshot.
func (c *Core) RunRO(t *ThreadCtx, tx *ROTx, fn func(tx *ROTx) error) error {
	outer := tx.snap
	for attempt := 0; ; attempt++ {
		tx.snap = c.Clock.Now()
		err := fn(tx)
		if err == nil {
			tx.snap = outer
			t.Commits.Add(1)
			return nil
		}
		if errors.Is(err, ErrConflict) {
			t.Aborts.Add(1)
			if c.MaxRetry > 0 && attempt+1 >= c.MaxRetry {
				tx.snap = outer
				return fmt.Errorf("%w after %d attempts", c.Livelock, attempt+1)
			}
			c.Wait.Backoff(attempt + 1)
			continue
		}
		tx.snap = outer
		t.UserAborts.Add(1)
		return err
	}
}
