// Package swiss implements a SwissTM-like software transactional memory
// engine (Dragojević, Guerraoui, Kapalka, PLDI 2009) on the shared substrate
// of package stm:
//
//   - word-based, lock-based, with invisible reads and visible writes;
//   - eager (encounter-time) write locking, so write/write conflicts are
//     detected immediately;
//   - lazy (commit-time) read validation over a TL2-style global version
//     clock with timestamp extension, so read/write conflicts are detected
//     late — SwissTM's mixed conflict detection;
//   - write-back: speculative values live in the transaction's write log
//     until commit.
//
// Conflicts on a locked Var are resolved by Greedy (Guerraoui, Herlihy,
// Pochon), the timestamp manager SwissTM's two-phase scheme falls back to:
// a transaction is stamped at its first attempt and keeps the stamp across
// retries, so it only grows older; the older of two conflicting
// transactions dooms the lock owner and waits for the lock, and the younger
// one aborts itself.
//
// The engine takes a Scheduler (e.g. Shrink) and a WaitPolicy that selects
// preemptive or busy waiting between retries — the knob behind Figures 5
// versus 9 of the paper. The transaction lifecycle (retry loop, hook
// bracketing) is the shared stm.Core; this package provides the
// read/write/commit/rollback protocol and its conflict resolution.
package swiss

import (
	"sync/atomic"
	"unsafe"

	"github.com/shrink-tm/shrink/internal/stm"
)

// Options configures a TM instance. Zero fields fall back to defaults:
// NopScheduler, preemptive waiting (the paper's SwissTM setting).
type Options struct {
	Scheduler stm.Scheduler
	Wait      stm.WaitPolicy
}

// TM is a SwissTM-like engine instance.
type TM struct {
	core stm.Core
	// stamps hands out Greedy timestamps, one per transaction. It is
	// bumped by every thread, so it sits on its own cache line, away from
	// the version clock.
	_      [64]byte
	stamps atomic.Uint64
	_      [56]byte
}

var _ stm.TM = (*TM)(nil)

// New returns a TM with the given options.
func New(opts Options) *TM {
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

// Atomically implements stm.Thread via the shared runner: it runs fn
// transactionally, retrying on conflicts, with every attempt bracketed by
// the scheduler hooks.
func (th *Thread) Atomically(fn func(tx stm.Tx) error) error {
	return th.tm.core.Run(th.ctx, &th.tx, fn)
}

// AtomicallyRO implements stm.Thread via the shared snapshot-mode runner:
// reads validate inline against a fixed snapshot timestamp, so the
// transaction maintains no read log and performs no commit-phase work (in
// particular, no atomic read-modify-write on the global clock).
func (th *Thread) AtomicallyRO(fn func(tx *stm.ROTx) error) error {
	return th.tm.core.RunRO(th.ctx, &th.ro, fn)
}

// writeEntry records an acquired write lock and the speculative value
// pointer. The locked Var itself lives in the write index (windex), which
// is maintained in lockstep with the log; entry i belongs to windex.At(i).
type writeEntry struct {
	val     unsafe.Pointer
	oldMeta uint64 // unlocked orec word to restore on abort
}

// txn is the per-thread transaction descriptor, reused across attempts. All
// of its state (read log, write log, write index) retains capacity across
// attempts, so a warmed descriptor runs allocation-free.
type txn struct {
	th     *Thread
	rv     uint64 // read version (snapshot timestamp)
	reads  stm.ReadLog
	writes []writeEntry
	windex stm.WriteIndex // *Var -> index into writes
}

var _ stm.CoreTx = (*txn)(nil)

// Begin implements stm.CoreTx. The first attempt of a transaction takes its
// Greedy timestamp; retries keep it.
func (tx *txn) Begin(attempt int) {
	if attempt == 0 {
		tx.th.ctx.Priority.Store(tx.th.tm.stamps.Add(1))
	}
	tx.rv = tx.th.tm.core.Clock.Now()
	tx.reads.Reset()
	tx.writes = tx.writes[:0]
	tx.windex.Reset()
}

// Writes implements stm.CoreTx: the zero-copy write-set view over the write
// index, valid until the next Begin.
func (tx *txn) Writes() stm.WriteSet { return tx.windex.Set() }

// ThreadID implements stm.Tx.
func (tx *txn) ThreadID() int { return tx.th.ctx.ID }

// ReadPtr implements stm.Tx: the engine's read protocol over the raw value
// pointer. Reads are invisible: the Var's orec is sampled around the pointer
// load and validated against the transaction's snapshot, extending the
// snapshot (with full read-set validation) when the Var is newer — the
// LSA-style timestamp extension SwissTM uses.
func (tx *txn) ReadPtr(v *stm.Var) (unsafe.Pointer, error) {
	if tx.th.ctx.Doomed.Load() {
		return nil, stm.ErrConflict
	}
	// Reads before the first write (a descent) have nothing to look up.
	if len(tx.writes) > 0 {
		if i, ok := tx.windex.Lookup(v); ok {
			return tx.writes[i].val, nil
		}
	}
	for {
		p, meta := v.SnapshotPtr()
		if stm.IsLocked(meta) {
			if err := tx.resolve(v, stm.OwnerOf(meta)); err != nil {
				return nil, err
			}
			continue
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

// WritePtr implements stm.Tx. Write locks are acquired at encounter time
// (eager), so a write/write conflict surfaces immediately; the value
// pointer is buffered until commit (write-back).
func (tx *txn) WritePtr(v *stm.Var, p unsafe.Pointer) error {
	if tx.th.ctx.Doomed.Load() {
		return stm.ErrConflict
	}
	if i, ok := tx.windex.Lookup(v); ok {
		tx.writes[i].val = p
		return nil
	}
	for {
		meta := v.Meta()
		if stm.IsLocked(meta) {
			owner := stm.OwnerOf(meta)
			if owner == tx.th.ctx.ID {
				// Locked by this thread but missing from the
				// write index: a stale lock cannot occur
				// because rollback/commit always release;
				// treat defensively as conflict.
				return stm.ErrConflict
			}
			if err := tx.resolve(v, owner); err != nil {
				return err
			}
			continue
		}
		if ver := stm.VersionOf(meta); ver > tx.rv {
			if !tx.extend() {
				return stm.ErrConflict
			}
			continue
		}
		if !v.TryLock(meta, tx.th.ctx.ID) {
			continue
		}
		tx.windex.Add(v)
		tx.writes = append(tx.writes, writeEntry{val: p, oldMeta: meta})
		return nil
	}
}

// resolve is Greedy's answer to v being locked by thread owner: nil when
// the caller should re-attempt the operation, ErrConflict when it must
// abort. An older transaction dooms the owner and spins, bounded, for the
// lock; a younger one aborts itself at once.
func (tx *txn) resolve(v *stm.Var, owner int) error {
	enemy := tx.th.tm.core.Reg.Get(owner)
	if enemy == nil || !older(tx.th.ctx.Priority.Load(), enemy.Priority.Load()) {
		return stm.ErrConflict
	}
	enemy.Doomed.Store(true)
	if tx.th.tm.core.Wait.SpinWhileLocked(v, tx.th.ctx.ID, 1024) {
		return nil
	}
	return stm.ErrConflict
}

// older reports whether a running transaction stamped mine wins a
// conflict against the lock owner's stamp theirs. Stamps are unique and
// nonzero while a transaction runs; an owner reading 0 has committed since
// it took the lock, and loses.
func older(mine, theirs uint64) bool {
	return theirs == 0 || mine < theirs
}

// extend advances the transaction's snapshot to the current clock via the
// shared read-log revalidation, and reports success.
func (tx *txn) extend() bool {
	return tx.reads.Extend(&tx.th.tm.core.Clock, &tx.rv, tx.th.ctx.ID)
}

// Commit implements stm.CoreTx: read-only transactions are already
// consistent by incremental validation; update transactions take a commit
// timestamp from the global clock, validate the read set, run the thread's
// commit hook, write back and release their locks at the new version. A
// committed transaction gives up its Greedy timestamp. The write log is
// preserved (for the scheduler's write-set view) until the next Begin.
func (tx *txn) Commit() error {
	if tx.th.ctx.Doomed.Load() {
		return stm.ErrConflict
	}
	if len(tx.writes) > 0 {
		wt := tx.th.tm.core.Clock.Tick()
		// If no other transaction committed since our snapshot, the read
		// set cannot have changed (TL2 fast path); otherwise validate.
		if wt != tx.rv+1 && !tx.reads.Validate(tx.th.ctx.ID) {
			return stm.ErrConflict
		}
		if h := tx.th.ctx.CommitHook; h != nil {
			h() // decided, and still locked: see stm.ThreadCtx.CommitHook
		}
		for i := range tx.writes {
			e := &tx.writes[i]
			v := tx.windex.At(i)
			v.StorePtr(e.val)
			v.Unlock(wt)
			// Drop the log's value reference: the hooks only need the
			// Vars, and a retained pointer would pin the value even
			// after another thread overwrites the Var.
			e.val = nil
		}
	}
	tx.th.ctx.Priority.Store(0)
	return nil
}

// Rollback implements stm.CoreTx: it releases any write locks, restoring the
// pre-lock orec words. The write log entries stay readable (for the
// scheduler's write-set view) until the next Begin.
func (tx *txn) Rollback() {
	for i := range tx.writes {
		tx.windex.At(i).UnlockRestore(tx.writes[i].oldMeta)
		tx.writes[i].val = nil // drop the speculative value reference
	}
	tx.reads.Reset()
}
