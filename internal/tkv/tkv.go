// Package tkv is a sharded transactional key-value store: the repository's
// first serving subsystem, layered on the STM substrate the paper evaluates.
//
// A Store runs one TM — one engine instance (SwissTM- or TinySTM-like), one
// scheduler, one wait policy — and splits the key space across N shards.
// Each shard holds a transactional hash map (stmds.HashMap), a session gate,
// a log when one is attached, and a bounded pool of STM threads, registered
// on the store's TM, that serving goroutines borrow per operation: a caller
// claims an idle thread with one compare-and-swap on the pool's free-bit word
// and returns it with one atomic OR (see threadPool). One engine means one
// clock for every shard, so any multi-key call is one transaction, run on a
// thread of its first shard; a shard's statistics are those of its own
// threads.
//
// Consistency model. Every operation is one STM transaction, and the engine
// makes the history serializable. A store with a log attached (ReplRing,
// WAL) adds one rule: a record enters the log inside its commit; observers
// freeze the gate. A logged write hands its record to the log from the
// engine's commit hook (stm.ThreadCtx.CommitHook), after its read set has
// validated and before its write locks are released. Every write of a key
// reads or overwrites the key's value cell (and one that creates the key
// writes the link that will hold it), so two writes to one key meet on a cell
// the earlier one still locks while it appends, and reach the log in their
// commit order; and a reader, who sees a value only once its writer has
// unlocked, never sees a write whose record is not yet in the log. Nothing per key is locked
// outside the engine. A whole-shard observer needs one thing more, the
// shard's gate: every logged write and every mutating batch holds it shared
// while it runs, and a snapshot, a checkpoint or replication cut, and
// SetReadOnly freeze it to find the shard with no write in flight (records
// of one shard reach its log in commit order per key, not in
// commit-timestamp order, so no head read under running writers is exact):
//
//   - Single-key operations (Get, Put, Delete, CAS, Add) are one STM
//     transaction each. What an op of each kind reads, writes, returns and
//     logs is one function, exec, which the four writes (through
//     Store.write) and a batch's ops share. On a logged store a write
//     enters its shard's gate and emits exec's log entry from its commit; a
//     Get takes nothing, on any store.
//   - Batches (multi-key, possibly cross-shard) run as one update
//     transaction: ops read earlier ops' writes through its write log, and
//     a cas mismatch or a user error aborts it with nothing written (see
//     ErrCASMismatch). Every mutating batch enters its shards' gates
//     (ascending), and on a logged store emits one record per shard it
//     wrote, ascending, from its commit. A batch of gets only is a multi-key
//     read.
//   - Multi-key reads (MGet, a get-only Batch) are one read-only snapshot
//     transaction across all their shards: an atomic cut, which never
//     observes part of a batch. They take nothing.
//   - Snapshots (ForEach, Snapshot, Len) freeze every shard's gate
//     (ascending order: every in-flight and new batch is excluded, and on a
//     logged store every single-key write too) and read each shard in one
//     read-only snapshot transaction (stm.ROTx: validation-free, no read log,
//     no clock tick). The cut never observes part of a batch and is
//     serializable: a single-key transaction touches one shard, so ordering
//     the snapshot after every transaction it observed and before every one
//     it missed yields a legal serial history. It is not strictly
//     serializable across shards on an unlogged store, though, whose
//     single-key writes run past the gates — the per-shard reads happen at
//     different instants, so a single-key write that completes on an
//     already-visited shard before a write on a yet-unvisited shard begins
//     may be absent while the later write is present. Callers needing a
//     real-time cut across shards use MGet.
//
// Gates order before the STM layer (enter, then transact), and a call that
// enters several enters them in shard order, so the subsystem is
// deadlock-free.
//
// One pooled state. Batch, MGet, the follower's ReplApply and
// ReplRestoreShard, and WAL recovery all go through one pooled batchState:
// group the keys by shard (a counting sort into flat slices), enter the gates
// the call needs, run one pre-bound transaction body. The state is to
// multi-key calls what opSlot is to single-key ones: no closure, map or plan
// slice is built per call, so a call allocates only what it hands away — its
// result slice, one cell per value it stores, the log record it emits.
// BenchmarkBatchDisjoint, BenchmarkMGet8 and TestBatchAllocBudget hold that
// line.
//
// Value cells. The map holds every value as a *string cell, which becomes
// the committed value as it is. A value the store makes from bytes — a wire
// put's payload, an add's new counter, a recovered, replicated or restored
// log entry — is one pointer-free object from NewCell: the collector marks
// it without scanning it, and the allocator keeps it in one size class. A
// value a Go caller hands over as a string (Put, a batch's put, CAS's new
// value) is a header cell over that string, which copies nothing; PutRef
// commits the caller's own cell.
//
// Read-path adaptivity: Get and MGet run in the validation-free read-only
// snapshot mode, which restarts when a concurrent writer commits past its
// snapshot. Under a write-heavy antagonist those restarts can string
// together, so after roFallbackStreak consecutive restarts on a shard's
// read path the next read runs on the logging update path instead (whose
// read log and timestamp extension absorb concurrent commits); the
// fallback count is reported per shard (an MGet counts on its first shard,
// and a get-only Batch shares MGet's path and its accounting). Snapshots
// always stay RO — they run under the freeze gate. The fallback has earned
// its place on an ablation (EXPERIMENTS.md, "Stripes order the log and
// nothing else"): under writers on a few hot keys it halves the restarts per
// read, and it pays for that with the writers' throughput.
package tkv

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// Config sizes a Store and selects its TM stack.
type Config struct {
	// Shards is the number of shards, rounded up to a power of two
	// (default 8). Each shard has its own hash map, gate, thread pool and
	// log; all of them share the store's one engine.
	Shards int
	// PoolSize is the number of STM threads registered per shard; it
	// bounds the transactions concurrently started from one shard — a
	// multi-key transaction runs on a thread of its first shard — (default
	// 4, at most maxPoolSize = 64: the pool's free threads are the bits of
	// one word, and a larger value is clamped to it).
	PoolSize int
	// Buckets is the hash-table bucket count per shard (default 512).
	Buckets int
	// Engine, Scheduler and Wait select the store's one TM (see enginecfg;
	// a Shrink scheduler runs its default configuration); the zero values
	// are SwissTM, no scheduler, preemptive waiting. The scheduler sees
	// every transaction of every shard, a batch's across shards included:
	// it is where the store prevents conflicts, the engine's retry where it
	// cures them.
	Engine    string
	Scheduler string
	Wait      stm.WaitPolicy
	// Admission enables the admission layer: a per-shard controller that
	// sheds writes, and batches through ShedLowPriority, with
	// ErrBackpressure once the shard is past its overload knee, and
	// refuses nothing below it (see AdmitConfig). nil
	// disables it entirely: no controller goroutine runs and the serving
	// paths pay nothing. A Store opened with Admission set should be Closed.
	Admission *AdmitConfig
	// ReplRing attaches a replication log (see repl.go): every shard's log
	// keeps a window of its last ReplRing records in memory, which the
	// wire-level shipper streams to followers. 0 disables replication. The
	// write paths are the same code either way; on a logged store (this,
	// the WAL, or both) each appends its record from inside its commit, so
	// record order is commit order per key (see Store.write and Batch).
	ReplRing int
	// WAL attaches a write-ahead log (see internal/tkvwal and wal.go; one
	// lane carries every shard): the one append that numbers a
	// shard's records, and fills its window when ReplRing is set, also hands
	// them to the WAL, and a write is acknowledged only once its record is
	// fsync-durable (group-committed; see tkvwal.Options for the async
	// mode). Open recovers the directory — checkpoint plus log tail —
	// before serving, and each shard's sequence continues from it. nil
	// disables durability. A Store opened with a WAL must be Closed.
	WAL *tkvwal.Options
}

// Store is a sharded transactional key-value store with string values.
type Store struct {
	// tm is the store's one engine: every shard's threads are registered on
	// it, so one transaction can span shards.
	tm     stm.TM
	shards []*shard
	shift  uint // shard index = top bits of the mixed key
	ops    opCounters
	// ctrl is the admission controller; nil unless Config.Admission.
	ctrl *controller
	// logs is, per shard, the one record sequence (and, with a ring, its
	// window) that every attached log shares: see wal.go. nil unless the
	// store is logged (Config.ReplRing > 0 or Config.WAL).
	logs []shardLog
	// repl is the replication log; nil unless Config.ReplRing > 0.
	repl *ReplLog
	// wal is the write-ahead log; nil unless Config.WAL.
	wal     *tkvwal.WAL
	walStop chan struct{} // stops the checkpoint loop; nil if none
	walDone chan struct{}
	walOnce sync.Once
	// ro gates external writes with ErrNotPrimary (follower role), whatever
	// is attached: Store.write and Batch check it, ReplApply does not.
	ro atomic.Bool
}

// shard is one slice of the key space: its own hash map, gate, thread pool
// (registered on the store's engine) and log.
type shard struct {
	kv   *stmds.HashMap[string]
	pool threadPool
	// ctl is the shard's admission state; nil unless Config.Admission.
	ctl *shardCtl
	// gate is held shared by every mutating batch over the shard and, on a
	// logged store, by every single-key write; snapshots, cuts and
	// SetReadOnly freeze it. See the package comment.
	gate gate
	// roStreak counts consecutive read-only snapshot restarts on this
	// shard's read path; roFallbacks counts the reads that were routed to
	// the logging update path because the streak reached roFallbackStreak.
	roStreak    atomic.Uint32
	roFallbacks atomic.Uint64
}

// gate is a shard's session gate. A writer enters it (shared) before its
// transaction and exits it after; an observer that must find the shard with
// no write in flight freezes it (exclusive), which waits out every writer
// inside and holds new ones out until unfreeze. Freezes exclude each other.
// A contended enter counts as an exclusive wait (a writer pausing for an
// observer), a contended freeze as a shared one (an observer pausing for
// writers): the counters behind ShardStats' StripeWaitsExcl and
// StripeWaitsShared, and the admission score's wait term.
type gate struct {
	mu          sync.RWMutex
	sharedWaits atomic.Uint64
	exclWaits   atomic.Uint64
}

func (g *gate) enter() {
	if !g.mu.TryRLock() {
		g.exclWaits.Add(1)
		g.mu.RLock()
	}
}

func (g *gate) exit() { g.mu.RUnlock() }

func (g *gate) freeze() {
	if !g.mu.TryLock() {
		g.sharedWaits.Add(1)
		g.mu.Lock()
	}
}

func (g *gate) unfreeze() { g.mu.Unlock() }

// waits reports the contended freezes and enters.
func (g *gate) waits() (shared, excl uint64) {
	return g.sharedWaits.Load(), g.exclWaits.Load()
}

// slotPool and batchPool recycle the per-call state of every store in the
// process: single-key operations borrow an opSlot, multi-key calls a
// batchState. An item is bound to its shard or store for one call and
// unbound when it is released, so nothing the pools hold reaches a store,
// and a store nobody references is garbage at the next collection. A pool
// inside the store could not give that: the runtime keeps every used pool
// listed until the second collection after its last use, and the listing
// would hold the whole store. Pointers, so that a test can swap in a pool
// of its own.
var (
	slotPool  = &sync.Pool{New: func() any { return newOpSlot() }}
	batchPool = &sync.Pool{New: func() any { return newBatchState() }}
)

// opSlot is the pooled state of one single-key operation. The transaction
// bodies (roGet, and run, which runs exec on the slot's op) and the commit
// hook (logWrite) are created once per slot and capture only the slot; per
// call, Get and Store.write bind the slot to the key's shard, fill the
// in-fields, run the pre-bound body, and read the out-fields back. This is
// what makes a steady-state Get or PutRef allocation-free: the closure, the
// escaping result variables, and (for PutRef) the value spill were the
// single-key path's only per-op allocations.
type opSlot struct {
	s   *shard       // the call's shard; nil while pooled
	op  Op           // in: the operation (a Get fills only Key)
	val *string      // in: a put's value cell (see Store.PutRef)
	res OpResult     // out: the op's result
	n   int64        // out: an add's new counter
	e   tkvlog.Entry // out: the log entry of the state a write left

	// A logged write's store, which logWrite appends to, and the durability
	// handle it got back.
	st     *Store
	commit *tkvwal.Commit

	roGet    func(tx *stm.ROTx) error
	run      func(tx stm.Tx) error
	logWrite func()
}

// newOpSlot builds an unbound slot with all transaction bodies pre-built.
func newOpSlot() *opSlot {
	sl := &opSlot{}
	sl.roGet = func(tx *stm.ROTx) error {
		var err error
		sl.res.Value, sl.res.Found, err = sl.s.kv.GetRO(tx, sl.op.Key)
		return err
	}
	sl.run = func(tx stm.Tx) error {
		var err error
		sl.res, sl.n, sl.e, _, err = exec(tx, sl.s.kv, &sl.op, sl.val)
		return err
	}
	// A logged write's record, emitted inside its commit. The engine calls
	// it only for an attempt that wrote something, so a missed CAS or a
	// delete of a missing key has no record.
	sl.logWrite = func() {
		sl.commit = sl.st.logCommit(sl.st.ShardOf(sl.op.Key), 0, []tkvlog.Entry{sl.e})
	}
	return sl
}

// slot takes a slot from the pool and binds it to s; the caller releases it.
func (s *shard) slot() *opSlot {
	sl := slotPool.Get().(*opSlot)
	sl.s = s
	return sl
}

// release unbinds the slot and scrubs its string references (so the pool
// never pins a shard or a large value), and returns it to the pool.
func (sl *opSlot) release() {
	sl.s, sl.op, sl.val, sl.res, sl.e = nil, Op{}, nil, OpResult{}, tkvlog.Entry{}
	sl.st, sl.commit = nil, nil
	slotPool.Put(sl)
}

// opCounters tracks served operations per kind.
type opCounters struct {
	gets, puts, deletes, cas, casMisses, adds          counter
	batches, batchOps, batchCASMisses, mgets, mgetKeys counter
	snapshots, warmed                                  counter
}

// Open builds a Store: one TM from the config's engine, scheduler and wait
// policy, and the shards, each registering its pool of threads on that TM.
// One engine, and so one clock and one scheduler, for the whole key space
// is what lets a multi-key call run as one transaction across shards; a
// scheduler (Shrink in particular) sees and serializes traffic of every
// shard.
func Open(cfg Config) (*Store, error) {
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.Shards <= 0 {
		n = 8
	}
	poolSize := min(cfg.PoolSize, maxPoolSize)
	if poolSize <= 0 {
		poolSize = 4
	}
	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = 512
	}
	tm, _, err := enginecfg.Build(enginecfg.Spec{
		Engine:    cfg.Engine,
		Scheduler: cfg.Scheduler,
		Wait:      cfg.Wait,
	})
	if err != nil {
		return nil, fmt.Errorf("tkv: %w", err)
	}
	st := &Store{tm: tm, shards: make([]*shard, n), shift: uint(64 - log2(n))}
	if cfg.ReplRing > 0 || cfg.WAL != nil {
		st.logs = make([]shardLog, n)
		for i := range st.logs {
			st.logs[i].floor = 1
			if cfg.ReplRing > 0 {
				st.logs[i].slots = make([]ReplRec, cfg.ReplRing)
			}
		}
	}
	if cfg.ReplRing > 0 {
		st.repl = newReplLog(st.logs)
	}
	for i := range st.shards {
		s := &shard{kv: stmds.NewHashMap[string](buckets)}
		threads := make([]stm.Thread, poolSize)
		for j := range threads {
			threads[j] = tm.Register(fmt.Sprintf("shard%d-w%d", i, j))
		}
		s.pool.init(threads)
		st.shards[i] = s
	}
	if cfg.WAL != nil {
		if err := st.openWAL(cfg); err != nil {
			return nil, fmt.Errorf("tkv: %w", err)
		}
	}
	if cfg.Admission != nil {
		ac := cfg.Admission.normalized()
		st.ctrl = newController(st, ac)
		for i, s := range st.shards {
			s.ctl = &st.ctrl.shards[i]
		}
		go st.ctrl.run()
	}
	return st, nil
}

// Close stops the store's goroutines: the admission controller's, and the
// WAL's (checkpoint loop stopped, pending groups flushed, segment files
// closed). Idempotent; a no-op for stores opened without Admission or a WAL.
// Memory is not Close's to free: once the last reference to a store is
// dropped, closed or not, it is garbage at the next collection.
func (st *Store) Close() {
	if st.ctrl != nil {
		st.ctrl.close()
	}
	st.walShutdown()
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// mix64 is the splitmix64 finalizer. Shard selection uses its top bits and
// the per-shard hash map hashes the key again for its low bucket bits, so
// the two levels stay independent.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// ShardOf returns the index of the shard owning a key.
func (st *Store) ShardOf(key uint64) int { return int(mix64(key) >> st.shift) }

func (st *Store) shardFor(key uint64) *shard { return st.shards[st.ShardOf(key)] }

// atomically borrows a pooled STM thread for one transaction. If all of the
// shard's threads are busy, the caller blocks, which bounds the transactions
// started from a shard to the pool size. onCommit, when not nil, is the
// thread's commit hook for the call (a logged write's append; see
// stm.ThreadCtx.CommitHook). The thread, and its hook, are returned via
// defer so that a panicking transaction body (should a caller recover it)
// cannot leak the pool slot or leave the hook set.
func (s *shard) atomically(fn func(tx stm.Tx) error, onCommit func()) error {
	i := s.pool.claim()
	defer s.pool.release(i)
	th := s.pool.threads[i]
	if onCommit != nil {
		ctx := th.Ctx()
		ctx.CommitHook = onCommit
		defer func() { ctx.CommitHook = nil }()
	}
	return th.Atomically(fn)
}

// atomicallyRO is atomically for read-only snapshot transactions: same pool
// discipline, but the borrowed thread runs the validation-free RO protocol
// (no read log, no commit-phase work, no clock tick).
func (s *shard) atomicallyRO(fn func(tx *stm.ROTx) error) error {
	i := s.pool.claim()
	defer s.pool.release(i)
	return s.pool.threads[i].AtomicallyRO(fn)
}

// roFallbackStreak is the number of consecutive read-only snapshot restarts
// on a shard's read path after which the next read runs on the logging
// update path instead. The RO mode restarts whole attempts whenever a
// concurrent writer commits past its snapshot; the update path's read log
// and timestamp extension revalidate and continue instead, which is cheaper
// once restarts are the common case.
const roFallbackStreak = 8

// takeFallback decides whether the next read on this shard should run on
// the logging update path: true once the RO restart streak reaches
// roFallbackStreak, consuming (resetting) the streak and counting the
// fallback. Callers branch on it BEFORE constructing their transaction
// bodies, so the rarely-taken update-path closure is never allocated on
// the common path.
func (s *shard) takeFallback() bool {
	if s.roStreak.Load() < roFallbackStreak {
		return false
	}
	s.roStreak.Store(0)
	s.roFallbacks.Add(1)
	return true
}

// roTracked is atomicallyRO plus restart-streak accounting: a clean call
// resets the shard's streak, a restarted one extends it. Like atomically,
// the thread is returned via defer so a panicking body (should a caller
// recover it) cannot leak the pool slot.
func (s *shard) roTracked(fn func(tx *stm.ROTx) error) error {
	i := s.pool.claim()
	th := s.pool.threads[i]
	before := th.Ctx().Aborts.Load()
	defer func() {
		// The pooled thread is exclusively ours between claim and
		// release, so the abort-counter delta is exactly this call's
		// restart count.
		restarts := th.Ctx().Aborts.Load() - before
		if restarts == 0 {
			s.roStreak.Store(0)
		} else {
			s.roStreak.Add(uint32(restarts))
		}
		s.pool.release(i)
	}()
	return th.AtomicallyRO(fn)
}

// Get returns the value under key. It runs as a read-only snapshot
// transaction — the dominant operation at realistic read ratios pays no
// write-index probing, no read-log append and no commit-time validation —
// with the adaptive update-path fallback under RO restart streaks. It takes
// nothing else, on any store: a value is visible only once its writer has
// unlocked, which on a logged store is after its record is in the log. The
// pooled slot and its pre-bound bodies make the steady-state call
// allocation-free end to end.
func (st *Store) Get(key uint64) (string, bool, error) {
	st.ops.gets.Add(1)
	s := st.shardFor(key)
	sl := s.slot()
	sl.op.Key = key
	var err error
	if s.takeFallback() {
		err = s.atomically(sl.run, nil)
	} else {
		err = s.roTracked(sl.roGet)
	}
	val, ok := sl.res.Value, sl.res.Found
	sl.release()
	return val, ok, err
}

// write is the single-key write path: Put, Delete, CAS and Add on every
// store, whatever log is attached. The read-only gate, admission, and one
// update transaction on a pooled slot's pre-bound body, which runs exec on
// op (and, for a put, the caller's value cell); r is exec's result, n an
// Add's new counter. A CAS mismatch is a miss the transaction commits, with
// nothing written.
//
// On a logged store the write also enters its shard's gate, and checks the
// read-only flag again inside it (SetReadOnly(true) freezes every gate, so a
// write inside one either finishes before the fence returns or sees it), and
// its commit emits exec's log entry as its record (opSlot.logWrite, the
// engine's commit hook): after the transaction has validated and before its
// locks are released, so two writes to one key reach the log in their commit
// order (see repl.go, "Ordering"). The returned Commit is the WAL's
// durability handle, nil without one; the callers Wait on it after this
// function's deferred exit has left the gate, so fsync latency never holds a
// snapshot or a cut out. An unlogged write takes no gate: the transaction
// alone orders it.
func (st *Store) write(op Op, cell *string) (r OpResult, n int64, c *tkvwal.Commit, err error) {
	if st.ro.Load() {
		return r, 0, nil, ErrNotPrimary
	}
	s := st.shardFor(op.Key)
	if s.ctl != nil {
		// Past its overload knee the shard sheds the write before it takes
		// anything.
		if err := s.ctl.admitWrite(); err != nil {
			return r, 0, nil, err
		}
	}
	var onCommit func()
	sl := s.slot()
	sl.op, sl.val = op, cell
	if st.logged() {
		s.gate.enter()
		defer s.gate.exit()
		if st.ro.Load() {
			// The fence went up while this write waited at the gate.
			sl.release()
			return r, 0, nil, ErrNotPrimary
		}
		sl.st = st
		onCommit = sl.logWrite
	}
	err = s.atomically(sl.run, onCommit)
	r, n, c = sl.res, sl.n, sl.commit
	sl.release()
	if err != nil {
		return OpResult{}, 0, nil, err
	}
	if r.CASMismatch {
		st.ops.casMisses.Add(1)
	}
	return r, n, c, nil
}

// cellHeader is the size of a string header, which opens every cell NewCell
// makes.
const cellHeader = int(unsafe.Sizeof(""))

// NewCell returns a value cell holding a copy of b, for PutRefAsync. It is
// the one way the store makes a value from bytes of its own (a wire put's
// payload, an add's digits, a log entry it applies), and it costs one
// allocation at any size: a byte slice of cellHeader+len(b) bytes, whose
// first cellHeader bytes are the cell's string header and whose tail holds
// the bytes, with the header's data pointer at the tail. A byte slice is
// allocated as an object without pointers, so the collector marks a cell
// without scanning it, and a store full of cells is one object a value
// instead of a header cell and its bytes, which the allocator scatters over
// two size classes.
//
// This is sound because the object points only into itself: Go's
// collector never moves a heap object, and any pointer to the cell (the
// *string the map holds) or into its tail (a string read out of it) keeps
// the whole object alive, so the header's unscanned pointer never outlives
// its target. A byte allocation of at least cellHeader bytes comes from a
// size class that is a multiple of 8, so the header is aligned. The bytes
// are never written after NewCell returns: the cell is immutable, as every
// committed value must be.
func NewCell[B ~string | ~[]byte](b B) *string {
	buf := make([]byte, cellHeader+len(b))
	p := (*string)(unsafe.Pointer(unsafe.SliceData(buf)))
	if len(b) > 0 {
		copy(buf[cellHeader:], b)
		*p = unsafe.String(&buf[cellHeader], len(b))
	}
	return p
}

// Put stores val under key, reporting whether the key was created. The
// value cell is a string header over the caller's own val (PutRef with the
// argument's own cell), so Put costs exactly one allocation, the header,
// and copies nothing.
func (st *Store) Put(key uint64, val string) (bool, error) {
	return st.PutRef(key, &val)
}

// PutRef stores the cell *val under key, reporting whether the key was
// created. The cell itself becomes the committed value — the caller cedes
// ownership and must never mutate *val afterwards. A caller holding the
// value as bytes makes its cell with NewCell, one pointer-free object; one
// holding a string hands over a header over it. A serving edge that
// interns repeated values (the binary wire server does) makes the whole
// put path allocation-free this way.
func (st *Store) PutRef(key uint64, val *string) (bool, error) {
	created, c, err := st.PutRefAsync(key, val)
	if err == nil {
		// The gate is already left (write's defers ran); parking on the
		// group fsync here keeps I/O latency out of every gate hold time.
		err = c.Wait()
	}
	return created, err
}

// PutRefAsync is PutRef split at the durability park: when it returns,
// the put is committed and visible to reads, and the returned handle
// resolves when it is durable. Callers that acknowledge writes must
// Wait (or equivalently use PutRef) before acking; a nil handle waits
// for nothing (no WAL, or async mode). Splitting the park out lets a
// pipelined serving edge keep executing a connection's queued writes
// while earlier ones ride the same group fsync, instead of paying one
// fsync round-trip per op.
func (st *Store) PutRefAsync(key uint64, val *string) (bool, *tkvwal.Commit, error) {
	st.ops.puts.Add(1)
	r, _, c, err := st.write(Op{Kind: OpPut, Key: key}, val)
	return err == nil && !r.Found, c, err
}

// Delete removes key, reporting whether it was present.
func (st *Store) Delete(key uint64) (bool, error) {
	deleted, c, err := st.DeleteAsync(key)
	if err == nil {
		err = c.Wait()
	}
	return deleted, err
}

// DeleteAsync is Delete split at the durability park (see PutRefAsync).
func (st *Store) DeleteAsync(key uint64) (bool, *tkvwal.Commit, error) {
	st.ops.deletes.Add(1)
	r, _, c, err := st.write(Op{Kind: OpDelete, Key: key}, nil)
	return r.Found, c, err
}

// CAS atomically replaces the value under key with new if the current value
// equals old, reporting whether it swapped. A missing key never matches.
func (st *Store) CAS(key uint64, old, new string) (bool, error) {
	swapped, c, err := st.CASAsync(key, old, new)
	if err == nil {
		err = c.Wait()
	}
	return swapped, err
}

// CASAsync is CAS split at the durability park (see PutRefAsync).
func (st *Store) CASAsync(key uint64, old, new string) (bool, *tkvwal.Commit, error) {
	st.ops.cas.Add(1)
	r, _, c, err := st.write(Op{Kind: OpCAS, Key: key, Old: old, Value: new}, nil)
	return r.Found && !r.CASMismatch, c, err
}

// Add atomically adds delta to the decimal integer stored under key,
// treating a missing key as 0, and returns the new value. A non-numeric
// stored value, or a sum outside int64, is a user error wrapping ErrUser:
// the transaction aborts without retry and writes nothing.
func (st *Store) Add(key uint64, delta int64) (int64, error) {
	out, c, err := st.AddAsync(key, delta)
	if err == nil {
		err = c.Wait()
	}
	return out, err
}

// AddAsync is Add split at the durability park (see PutRefAsync).
func (st *Store) AddAsync(key uint64, delta int64) (int64, *tkvwal.Commit, error) {
	st.ops.adds.Add(1)
	_, out, c, err := st.write(Op{Kind: OpAdd, Key: key, Delta: delta}, nil)
	return out, c, err
}

// ErrUser marks errors caused by the request content (as opposed to engine
// or server failures); the wire protocol maps it to StatusBadRequest. It is
// wrapped into user-abort errors with %w and detected with errors.Is.
var ErrUser = errors.New("tkv: invalid request")

// addCounter returns the Add counter stored as val (0 when absent or empty)
// plus delta. A non-numeric stored value, or a sum that overflows int64, is
// a user error.
func addCounter(val string, present bool, key uint64, delta int64) (int64, error) {
	var n int64
	if present && val != "" {
		var err error
		if n, err = strconv.ParseInt(val, 10, 64); err != nil {
			return 0, fmt.Errorf("%w: key %d holds non-numeric value %q", ErrUser, key, val)
		}
	}
	sum := n + delta
	if (sum < n) != (delta < 0) {
		return 0, fmt.Errorf("%w: key %d: %d%+d overflows int64", ErrUser, key, n, delta)
	}
	return sum, nil
}
