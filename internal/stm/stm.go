package stm

import (
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ErrConflict is the sentinel returned by transactional operations when the
// enclosing transaction must abort and retry. User transaction bodies must
// propagate it unchanged; Thread.Atomically recognizes it (via errors.Is) and
// restarts the transaction.
var ErrConflict = errors.New("stm: transaction conflict")

// Tx is the interface update-transaction bodies program against. Both
// engines (SwissTM-like and TinySTM-like) implement it, so transactional
// data structures and benchmarks are engine-agnostic.
//
// The engine core is the pointer pair ReadPtr/WritePtr: the engines log,
// validate and write back opaque value pointers without inspecting the
// pointee. Bodies reach them through the typed ReadT/WriteT/WriteRefT of a
// TVar. Every error returned by ReadPtr and WritePtr is ErrConflict
// (possibly wrapped) and must be propagated out of the transaction body
// unchanged.
type Tx interface {
	// ReadPtr returns v's current value pointer under the engine's read
	// protocol (validated against the transaction's snapshot). Callers
	// must not retain the pointer across transaction boundaries.
	ReadPtr(v *Var) (unsafe.Pointer, error)
	// WritePtr sets v's value pointer in this transaction. The engine
	// retains p in its write log until commit or rollback.
	WritePtr(v *Var, p unsafe.Pointer) error
	// ThreadID returns the executing thread's ID, for workloads that key
	// per-thread state.
	ThreadID() int
}

// Thread is a per-worker handle onto a TM. A Thread must be used by a single
// goroutine at a time.
type Thread interface {
	ID() int
	// Atomically runs fn as a transaction, retrying on conflicts until it
	// commits. A non-conflict error returned by fn aborts the transaction
	// and is returned to the caller without retry.
	Atomically(fn func(tx Tx) error) error
	// AtomicallyRO runs fn as a read-only snapshot transaction, retrying
	// with a fresh snapshot while reads race with concurrent writers. The
	// body receives the read-only descriptor (see ROTx), which is not a
	// Tx: it reads through ReadTRO, validating inline against a fixed
	// snapshot, with no read log, no write index and no commit phase, and
	// a write inside fn does not compile. Nesting an RO transaction inside
	// this thread's update transaction is illegal; reading a Var the
	// outer transaction wrote fails with ErrReadOnlyNested.
	AtomicallyRO(fn func(tx *ROTx) error) error
	// Ctx exposes the thread context (statistics, scheduler state).
	Ctx() *ThreadCtx
}

// TM is a transactional memory engine instance.
type TM interface {
	// Register creates a new Thread. Thread IDs are dense, starting at 0.
	Register(name string) Thread
	// Threads returns the contexts of all registered threads.
	Threads() []*ThreadCtx
	// Stats aggregates commit/abort counters across threads.
	Stats() Stats
}

// ThreadCtx carries the engine-independent per-thread state: identity,
// statistics, the doomed flag and timestamp of swiss's conflict resolution,
// and a slot for scheduler-private state.
type ThreadCtx struct {
	ID   int
	Name string

	// The statistics counters are written by the owner thread on every
	// commit and abort — the hottest stores of the transaction lifecycle.
	// They are fenced by a cache line of padding on both sides so that
	// they never share a line with another thread's data: not with the
	// cross-thread fields below (a conflicting thread storing Doomed or
	// loading Priority would otherwise contend for the owner's counter
	// line), and not with a neighboring heap allocation (ThreadCtx values
	// are allocated back to back by Registry.Add). The full-line pads make
	// that true regardless of the allocation's own alignment.
	// Serializations counts the attempts the attached Scheduler started
	// behind its serialization lock; schedulers add to it in BeforeStart,
	// which runs on the owner thread.
	_              [64]byte
	Commits        atomic.Uint64
	Aborts         atomic.Uint64
	UserAborts     atomic.Uint64
	Serializations atomic.Uint64
	_              [64]byte

	// Doomed is set by another thread that won a conflict against this
	// one (swiss's Greedy) to request that this thread's current
	// transaction abort at its next transactional operation.
	Doomed atomic.Bool

	// Priority is swiss's Greedy timestamp: taken at a transaction's first
	// attempt, kept across its retries and cleared at commit, so the
	// smaller nonzero value is the older transaction. Tiny never sets it.
	Priority atomic.Uint64

	// Doomed is written, and Priority read, by *other* threads (that is
	// their job), so they get their own fenced line too, keeping
	// cross-thread invalidations away from the owner-read fields below.
	_ [64]byte

	// ReadHook, when set, makes the engine invoke Scheduler.AfterRead on
	// every transactional read. It is read and written only by the owner
	// thread (engines on the hot path, schedulers in their hooks), so it
	// is deliberately an unsynchronized bool: schedulers that need read
	// tracking only under contention (Shrink's lazy activation) can turn
	// it off for healthy threads and make the hook cost one predictable
	// branch.
	ReadHook bool

	// CommitHook, when set, is called by the engine once per committed
	// update attempt that wrote something: after its read set has validated
	// and before its write locks are released, so the commit is decided and
	// every Var it wrote is still locked by this thread — a reader meets the
	// lock and waits or restarts, and sees the writes only once the hook has
	// returned. It is never called for an aborted or user-aborted attempt, a
	// commit with no writes, or a read-only transaction. Like ReadHook it is
	// read and written only by the owner thread, between transactions; the
	// hook must not run a transaction on this thread, and it cannot fail
	// the commit. nil (the default) costs the commit one branch.
	CommitHook func()

	// SchedState is owned by the Scheduler attached to the TM.
	SchedState any
}

// Stats is an aggregated snapshot of commit/abort and serialization
// counters.
type Stats struct {
	Commits        uint64
	Aborts         uint64
	UserAborts     uint64
	Serializations uint64
}

// CommitRate returns commits / (commits + aborts), or 1 if nothing ran.
func (s Stats) CommitRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 1
	}
	return float64(s.Commits) / float64(total)
}

// AggregateStats sums the counters of the given thread contexts.
func AggregateStats(threads []*ThreadCtx) Stats {
	var s Stats
	for _, t := range threads {
		s.Commits += t.Commits.Load()
		s.Aborts += t.Aborts.Load()
		s.UserAborts += t.UserAborts.Load()
		s.Serializations += t.Serializations.Load()
	}
	return s
}

// Scheduler is the transaction-scheduling hook interface. The engine invokes
// the hooks at the boundaries of every transaction attempt. BeforeStart may
// block (that is how serializing schedulers such as Shrink, ATS and Pool
// implement serialization), and a BeforeStart that takes its serialization
// lock adds 1 to t.Serializations; the matching release must happen in
// AfterCommit or AfterAbort.
type Scheduler interface {
	// RegisterThread is called once per thread, before any other hook.
	RegisterThread(t *ThreadCtx)
	// BeforeStart is called before each transaction attempt. attempt is 0
	// for the first try of a given Atomically call.
	BeforeStart(t *ThreadCtx, attempt int)
	// AfterRead is called after each successful transactional read.
	AfterRead(t *ThreadCtx, v *Var)
	// AfterCommit is called after a successful commit, with a zero-copy
	// view of the committed transaction's write set. The view aliases the
	// engine's live write log and is valid only for the duration of the
	// call; hooks that retain addresses must copy them out.
	AfterCommit(t *ThreadCtx, writeSet WriteSet)
	// AfterAbort is called after an abort, with a view of the aborted
	// attempt's write set under the same lifetime rule as AfterCommit.
	AfterAbort(t *ThreadCtx, writeSet WriteSet)
}

// NopScheduler is the base-STM scheduler: every hook is a no-op.
type NopScheduler struct{}

var _ Scheduler = NopScheduler{}

// RegisterThread implements Scheduler.
func (NopScheduler) RegisterThread(*ThreadCtx) {}

// BeforeStart implements Scheduler.
func (NopScheduler) BeforeStart(*ThreadCtx, int) {}

// AfterRead implements Scheduler.
func (NopScheduler) AfterRead(*ThreadCtx, *Var) {}

// AfterCommit implements Scheduler.
func (NopScheduler) AfterCommit(*ThreadCtx, WriteSet) {}

// AfterAbort implements Scheduler.
func (NopScheduler) AfterAbort(*ThreadCtx, WriteSet) {}

// Registry tracks the thread contexts of one TM instance so that an engine
// can map an orec owner ID back to the ThreadCtx that holds the lock.
type Registry struct {
	mu      sync.RWMutex
	threads []*ThreadCtx
}

// Add registers a new thread context and returns its dense ID.
func (r *Registry) Add(name string) *ThreadCtx {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &ThreadCtx{ID: len(r.threads), Name: name}
	r.threads = append(r.threads, t)
	return t
}

// Get returns the context for the given thread ID, or nil if out of range.
func (r *Registry) Get(id int) *ThreadCtx {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id < 0 || id >= len(r.threads) {
		return nil
	}
	return r.threads[id]
}

// All returns a copy of the registered contexts.
func (r *Registry) All() []*ThreadCtx {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ThreadCtx, len(r.threads))
	copy(out, r.threads)
	return out
}
