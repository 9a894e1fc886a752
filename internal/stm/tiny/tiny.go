// Package tiny implements a TinySTM-like software transactional memory
// engine (Riegel, Fetzer, Felber) on the shared substrate of package stm:
//
//   - word-based, lock-based, time-based (LSA) with a global version clock;
//   - encounter-time locking with write-through: a write acquires the lock
//     and updates the Var in place immediately, keeping an undo log;
//   - aborts restore the undo log and the pre-lock orec words;
//   - the conflict policy is suicide: a transaction that meets a Var
//     locked by another aborts itself and retries, by default with busy
//     waiting, matching the TinySTM 0.9.5 configuration the paper
//     evaluated — the combination whose throughput collapses under
//     overload in Figures 8, 10 and 11, and that Shrink rescues.
//
// The transaction lifecycle (retry loop, hook bracketing) is the shared
// stm.Core; this package provides only the read/write/commit/rollback
// protocol.
package tiny

import (
	"unsafe"

	"github.com/shrink-tm/shrink/internal/stm"
)

// Options configures a TM instance. Zero fields fall back to defaults:
// NopScheduler, busy waiting.
type Options struct {
	Scheduler stm.Scheduler
	Wait      stm.WaitPolicy
}

// TM is a TinySTM-like engine instance.
type TM struct {
	core stm.Core
}

var _ stm.TM = (*TM)(nil)

// New returns a TM with the given options.
func New(opts Options) *TM {
	if opts.Wait == 0 {
		opts.Wait = stm.WaitBusy
	}
	return &TM{core: stm.NewCore(stm.CoreOptions{Scheduler: opts.Scheduler, Wait: opts.Wait})}
}

// Register implements stm.TM.
func (tm *TM) Register(name string) stm.Thread {
	th := &Thread{tm: tm, ctx: tm.core.Register(name)}
	th.tx.th = th
	return th
}

// Threads implements stm.TM.
func (tm *TM) Threads() []*stm.ThreadCtx { return tm.core.Threads() }

// Stats implements stm.TM.
func (tm *TM) Stats() stm.Stats { return tm.core.Stats() }

// Clock exposes the global version clock (tests and diagnostics).
func (tm *TM) Clock() uint64 { return tm.core.Clock.Now() }

// Thread is a per-worker handle. It must be used by one goroutine at a time.
type Thread struct {
	tm  *TM
	ctx *stm.ThreadCtx
	tx  txn
	ro  stm.ROTx
}

var _ stm.Thread = (*Thread)(nil)

// ID implements stm.Thread.
func (th *Thread) ID() int { return th.ctx.ID }

// Ctx implements stm.Thread.
func (th *Thread) Ctx() *stm.ThreadCtx { return th.ctx }

// Atomically implements stm.Thread via the shared runner.
func (th *Thread) Atomically(fn func(tx stm.Tx) error) error {
	return th.tm.core.Run(th.ctx, &th.tx, fn)
}

// AtomicallyRO implements stm.Thread via the shared snapshot-mode runner.
// Snapshot reads are safe against this engine's write-through protocol:
// a locked Var holds a speculative value in place, and ReadTRO never
// returns the value of a locked Var.
func (th *Thread) AtomicallyRO(fn func(tx *stm.ROTx) error) error {
	return th.tm.core.RunRO(th.ctx, &th.ro, fn)
}

// undoEntry records an acquired lock's pre-lock orec word and the
// overwritten value pointer, so aborts can restore both. The locked Var
// itself lives in the write index (windex), which is maintained in lockstep
// with the log; entry i belongs to windex.At(i).
type undoEntry struct {
	oldVal  unsafe.Pointer
	oldMeta uint64
}

// txn is the per-thread transaction descriptor, reused across attempts. All
// of its state (read log, undo log, write index) retains capacity across
// attempts, so a warmed descriptor runs allocation-free.
type txn struct {
	th     *Thread
	rv     uint64
	reads  stm.ReadLog
	undo   []undoEntry
	windex stm.WriteIndex // *Var -> index into undo
}

var _ stm.CoreTx = (*txn)(nil)

// Begin implements stm.CoreTx.
func (tx *txn) Begin(int) {
	tx.rv = tx.th.tm.core.Clock.Now()
	tx.reads.Reset()
	tx.undo = tx.undo[:0]
	tx.windex.Reset()
}

// Writes implements stm.CoreTx: the zero-copy write-set view over the write
// index, valid until the next Begin.
func (tx *txn) Writes() stm.WriteSet { return tx.windex.Set() }

// ThreadID implements stm.Tx.
func (tx *txn) ThreadID() int { return tx.th.ctx.ID }

// ReadPtr implements stm.Tx: the engine's read protocol over the raw value
// pointer. With write-through, a Var this transaction has written holds the
// speculative value in place, so reads of own writes go through the write
// index to the Var directly.
func (tx *txn) ReadPtr(v *stm.Var) (unsafe.Pointer, error) {
	if tx.th.ctx.Doomed.Load() {
		return nil, stm.ErrConflict
	}
	// Reads before the first write (a descent) have nothing to look up.
	if len(tx.undo) > 0 {
		if _, ok := tx.windex.Lookup(v); ok {
			return v.LoadPtr(), nil
		}
	}
	for {
		p, meta := v.SnapshotPtr()
		if stm.IsLocked(meta) {
			return nil, stm.ErrConflict // suicide
		}
		ver := stm.VersionOf(meta)
		if ver > tx.rv {
			if !tx.extend() {
				return nil, stm.ErrConflict
			}
			continue
		}
		tx.reads.Record(v, ver)
		if tx.th.ctx.ReadHook {
			tx.th.tm.core.Sched.AfterRead(tx.th.ctx, v)
		}
		return p, nil
	}
}

// WritePtr implements stm.Tx: encounter-time locking with write-through. The
// lock is acquired and the new value pointer stored in place immediately;
// the old pointer goes to the undo log.
func (tx *txn) WritePtr(v *stm.Var, p unsafe.Pointer) error {
	if tx.th.ctx.Doomed.Load() {
		return stm.ErrConflict
	}
	if _, ok := tx.windex.Lookup(v); ok {
		v.StorePtr(p)
		return nil
	}
	for {
		meta := v.Meta()
		if stm.IsLocked(meta) {
			// Suicide; a lock of our own missing from the write index
			// cannot occur (rollback and commit always release).
			return stm.ErrConflict
		}
		if ver := stm.VersionOf(meta); ver > tx.rv {
			if !tx.extend() {
				return stm.ErrConflict
			}
			continue
		}
		oldVal := v.LoadPtr()
		if !v.TryLock(meta, tx.th.ctx.ID) {
			continue
		}
		v.StorePtr(p)
		tx.windex.Add(v)
		tx.undo = append(tx.undo, undoEntry{oldVal: oldVal, oldMeta: meta})
		return nil
	}
}

func (tx *txn) extend() bool {
	return tx.reads.Extend(&tx.th.tm.core.Clock, &tx.rv, tx.th.ctx.ID)
}

// Commit implements stm.CoreTx: it validates the read set, runs the
// thread's commit hook and releases the write locks at a fresh commit
// timestamp. Values are already in place (write-through). The undo log is
// preserved (for the scheduler's write-set view) until the next Begin.
func (tx *txn) Commit() error {
	if tx.th.ctx.Doomed.Load() {
		return stm.ErrConflict
	}
	if len(tx.undo) == 0 {
		return nil
	}
	wt := tx.th.tm.core.Clock.Tick()
	if wt != tx.rv+1 && !tx.reads.Validate(tx.th.ctx.ID) {
		return stm.ErrConflict
	}
	if h := tx.th.ctx.CommitHook; h != nil {
		h() // decided, and still locked: see stm.ThreadCtx.CommitHook
	}
	for i := range tx.undo {
		tx.windex.At(i).Unlock(wt)
		// Drop the pre-image reference: the hooks only need the Vars, and
		// a retained pointer would pin the overwritten value until this
		// thread's next transaction.
		tx.undo[i].oldVal = nil
	}
	return nil
}

// Rollback implements stm.CoreTx: it restores overwritten values from the
// undo log (newest first) and the pre-lock orec words. The undo log entries
// stay readable (for the scheduler's write-set view) until the next Begin.
func (tx *txn) Rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		e := &tx.undo[i]
		v := tx.windex.At(i)
		v.StorePtr(e.oldVal)
		v.UnlockRestore(e.oldMeta)
		e.oldVal = nil // the reference lives in the Var again
	}
	tx.reads.Reset()
}
