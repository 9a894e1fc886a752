package stm

import "errors"

// CoreTx is the per-attempt surface an engine's transaction descriptor
// exposes to Core.Run, on top of the user-facing Tx operations. The
// contract that keeps the hook pipeline zero-copy: Commit and Rollback must
// leave the write log readable (Writes stays valid) until the next Begin,
// which is where logs are reset.
type CoreTx interface {
	Tx
	// Begin resets the descriptor for a fresh attempt (snapshot timestamp,
	// read/write logs). attempt is 0 for the first try of a given
	// Atomically call, as for Scheduler.BeforeStart.
	Begin(attempt int)
	// Commit finalizes the attempt, returning ErrConflict (possibly
	// wrapped) if it must retry. Locks are released, but the write log is
	// preserved for Writes.
	Commit() error
	// Rollback releases the attempt's locks and undoes its effects,
	// preserving the write log for Writes.
	Rollback()
	// Writes returns the zero-copy view of the attempt's write set.
	Writes() WriteSet
}

// CoreOptions configures a Core. Zero fields fall back to defaults:
// NopScheduler, preemptive waiting.
type CoreOptions struct {
	Scheduler Scheduler
	Wait      WaitPolicy
}

// Core is the engine-independent half of a TM instance: the global version
// clock, the attached scheduler and wait policy, the thread registry, and
// the Atomically retry loop with its hook bracketing. Both engines embed one
// and provide their read/write/commit/rollback protocol, conflict
// resolution included, on top. A Core must not be copied after first use.
type Core struct {
	Clock Clock
	Sched Scheduler
	Wait  WaitPolicy
	Reg   Registry
}

// NewCore returns a Core with the given options, applying defaults for the
// zero fields.
func NewCore(opts CoreOptions) Core {
	if opts.Scheduler == nil {
		opts.Scheduler = NopScheduler{}
	}
	if opts.Wait == 0 {
		opts.Wait = WaitPreemptive
	}
	return Core{Sched: opts.Scheduler, Wait: opts.Wait}
}

// Register creates a thread context and announces it to the scheduler.
func (c *Core) Register(name string) *ThreadCtx {
	t := c.Reg.Add(name)
	c.Sched.RegisterThread(t)
	return t
}

// Threads returns the contexts of all registered threads.
func (c *Core) Threads() []*ThreadCtx { return c.Reg.All() }

// Stats aggregates commit/abort counters across threads.
func (c *Core) Stats() Stats { return AggregateStats(c.Reg.All()) }

// Run executes fn transactionally on tx, retrying on conflicts until it
// commits: the shared Atomically loop. Every attempt is bracketed by the
// scheduler hooks, and the wait policy backs off between attempts. The
// write set reaches the hooks as a zero-copy view over tx's live write log,
// so a committed update transaction allocates nothing here regardless of
// the attached scheduler.
func (c *Core) Run(t *ThreadCtx, tx CoreTx, fn func(Tx) error) error {
	for attempt := 0; ; attempt++ {
		c.Sched.BeforeStart(t, attempt)
		t.Doomed.Store(false)
		tx.Begin(attempt)

		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			t.Commits.Add(1)
			c.Sched.AfterCommit(t, tx.Writes())
			return nil
		}

		tx.Rollback()
		if errors.Is(err, ErrConflict) {
			t.Aborts.Add(1)
			c.Sched.AfterAbort(t, tx.Writes())
			c.Wait.Backoff(attempt + 1)
			continue
		}
		// User abort: the transaction's effects are discarded and the
		// error propagates without retry.
		t.UserAborts.Add(1)
		c.Sched.AfterAbort(t, tx.Writes())
		return err
	}
}

// ReadLog is the validated-read log shared by the engines: each entry
// records a Var and the version it had when read. The backing array is
// retained across Reset, so steady-state transactions never allocate here.
type ReadLog struct {
	entries []readLogEntry
}

type readLogEntry struct {
	v   *Var
	ver uint64
}

// Reset clears the log for the next attempt, keeping capacity.
func (l *ReadLog) Reset() { l.entries = l.entries[:0] }

// Len returns the number of recorded reads.
func (l *ReadLog) Len() int { return len(l.entries) }

// Record appends a validated read of v at version ver.
func (l *ReadLog) Record(v *Var, ver uint64) {
	l.entries = append(l.entries, readLogEntry{v: v, ver: ver})
}

// Extend tries to advance a transaction's snapshot timestamp rv to the
// current clock by revalidating the whole read log, and reports success —
// the LSA-style timestamp extension both engines run when they meet a Var
// newer than their snapshot.
func (l *ReadLog) Extend(clock *Clock, rv *uint64, self int) bool {
	now := clock.Now()
	if !l.Validate(self) {
		return false
	}
	*rv = now
	return true
}

// Validate checks that every recorded read is still consistent: the Var is
// unlocked (or locked by the validating thread's own eager write lock, under
// which the value cannot change until commit) and its version is unchanged.
func (l *ReadLog) Validate(self int) bool {
	for i := range l.entries {
		e := &l.entries[i]
		meta := e.v.Meta()
		if IsLocked(meta) {
			if OwnerOf(meta) != self {
				return false
			}
			continue
		}
		if VersionOf(meta) != e.ver {
			return false
		}
	}
	return true
}
