// Package tkv is a sharded transactional key-value store: the repository's
// first serving subsystem, layered on the STM substrate the paper evaluates.
//
// A Store splits the key space across N independent shards. Each shard is a
// complete TM stack — its own engine instance (SwissTM- or TinySTM-like),
// its own scheduler (per-shard Shrink, so contention in one shard never
// serializes another), its own wait policy — holding a transactional hash
// map (stmds.HashMap) and a bounded pool of registered STM threads that
// serving goroutines borrow per operation: a caller claims an idle thread
// with one compare-and-swap on the pool's free-bit word and returns it with
// one atomic OR (see threadPool).
//
// Consistency model. Admission is key-granular: every shard carries a
// striped lock table (internal/keylock) hashing each key onto one of a
// fixed power-of-two number of stripes, and operations lock exactly the
// stripes of the keys they touch. Four kinds of access compose:
//
//   - Single-key operations (Get, Put, Delete, CAS, Add) run as one STM
//     transaction on the owning shard, holding the key's stripe in shared
//     mode. They run concurrently with each other, with snapshots, and
//     with any batch whose key set does not share the stripe; they are
//     excluded only for the duration of a batch that holds their stripe
//     exclusively. The four writes are one function (Store.write), and on
//     a store with a log attached (ReplRing, WAL) it takes the stripe
//     exclusively instead, so that log order is commit order per key.
//   - Batches (multi-key, possibly cross-shard) two-phase: phase one
//     acquires exactly the stripes of the batch's keys — exclusive mode,
//     in (shard, stripe) ascending order — and reads/plans every
//     operation (one read-only snapshot transaction per shard); phase two
//     applies the planned writes, one update transaction per shard, then
//     releases. Per-key exclusion held across both phases keeps the plan
//     fresh (no one can write the batch's keys between plan and apply),
//     makes cas safe inside a batch (the compare happens in the plan, and
//     a mismatch aborts the whole batch before any apply — see
//     ErrCASMismatch), and means two batches over disjoint key sets — even
//     of the same shard — plan and apply concurrently. A batch confined to
//     one shard skips the two-phase entirely: it is a single STM
//     transaction, atomic by the engine alone, so it holds its stripes in
//     shared mode only (enough to exclude multi-phase batches from its
//     keys). A batch of gets only is a multi-key read (next item): shared
//     stripes, nothing to plan or apply.
//   - Multi-key reads (MGet) hold their keys' stripes in shared mode
//     across all shards and read each shard's group in one read-only
//     snapshot transaction, so they never observe a partially applied
//     batch on their own keys.
//   - Snapshots (ForEach, Snapshot, Len) freeze every shard's lock table
//     (ascending order; the tables' session gate excludes all in-flight
//     and new cross-shard batches in O(1) per shard, without touching
//     stripes or pausing single-key traffic) and read each shard in one
//     read-only snapshot transaction (stm.ROTx: validation-free, no read
//     log, no clock tick). The cut is atomic per shard, never observes a partial
//     batch, and is serializable: single-key transactions touch exactly
//     one shard, so ordering the snapshot after every transaction it
//     observed and before every one it missed yields a legal serial
//     history. It is not strictly serializable across shards, though —
//     the per-shard reads happen at different instants under shared
//     locks, so a single-key write that completes on an already-visited
//     shard before a write on a yet-unvisited shard begins may be absent
//     while the later write is present. Callers needing a real-time
//     fence across shards must use a batch.
//
// The stripes order before the STM layer (lock, then transact), and every
// multi-stripe acquisition follows one global order — shard index first,
// stripe index within a shard — so the subsystem is deadlock-free.
//
// One planner. Batch, MGet, the follower's ReplApply and the whole-shard
// cuts (checkpoint, resync) all go through one pooled batchState: group the
// keys by shard (a counting sort into flat slices), build the stripe set
// against the shards' keylock generations, lock it (replanning when an
// adaptive resize retires a generation), run one pre-bound transaction body
// per shard group. The state is to multi-key calls what opSlot is to
// single-key ones: no closure, map or plan slice is built per call, so a
// call allocates only what it hands away — its result slice, one cell per
// value it stores, the decimal string of an add, the log record it emits.
// BenchmarkBatchDisjoint, BenchmarkMGet8 and TestBatchAllocBudget hold that
// line.
//
// Read-path adaptivity: Get and MGet run in the validation-free read-only
// snapshot mode, which restarts when a concurrent writer commits past its
// snapshot. Under a write-heavy antagonist those restarts can string
// together, so after roFallbackStreak consecutive restarts on a shard's
// read path the next read runs on the logging update path instead (whose
// read log and timestamp extension absorb concurrent commits); the
// fallback count is reported per shard (a get-only Batch shares MGet's
// path and its accounting). Batch plan phases and snapshots always stay RO
// — they run under stripe exclusion or the freeze gate.
package tkv

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/keylock"
	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// Config sizes a Store and selects the per-shard TM stack.
type Config struct {
	// Shards is the number of independent shards, rounded up to a power
	// of two (default 8). Each shard has its own engine and scheduler.
	Shards int
	// PoolSize is the number of STM threads registered per shard; it
	// bounds the transactions concurrently executing in one shard
	// (default 4, at most maxPoolSize = 64: the pool's free threads are the
	// bits of one word, and a larger value is clamped to it).
	PoolSize int
	// Buckets is the hash-table bucket count per shard (default 512).
	Buckets int
	// LockStripes is the per-shard key-lock stripe count, rounded up to a
	// power of two (default keylock.DefaultStripes). More stripes admit
	// more concurrent disjoint batches per shard at the cost of table
	// footprint (one cache line per stripe).
	LockStripes int
	// Engine, Scheduler, Wait and Shrink select the per-shard TM stack
	// (see enginecfg); the zero values are SwissTM, no scheduler,
	// preemptive waiting.
	Engine    string
	Scheduler string
	Wait      stm.WaitPolicy
	Shrink    *sched.ShrinkConfig
	// Admission enables the contention-aware admission layer (overload
	// shedding, wound-wait batch admission, adaptive stripe counts,
	// predictor-routed writes; see AdmitConfig). nil disables it
	// entirely: no controller goroutine runs and the serving paths pay
	// nothing. A Store opened with Admission set should be Closed.
	Admission *AdmitConfig
	// ReplRing attaches a replication log (see repl.go): per-shard rings
	// of the last ReplRing committed write sets, fed from the write paths
	// and consumed by the wire-level shipper. 0 disables replication. The
	// write paths are the same code either way; with a log attached (this
	// one or the WAL) they take their stripes in exclusive mode and emit
	// a record before releasing them, so record order is commit order per
	// key (see Store.write and Batch).
	ReplRing int
	// WAL attaches a write-ahead log (see internal/tkvwal and wal.go; its
	// lanes each carry some of the shards): committed write sets are
	// appended from the same stripe-exclusive section that feeds the
	// replication rings and a write is acknowledged only once its record
	// is fsync-durable (group-committed; see tkvwal.Options for the async
	// mode). Open recovers the directory — checkpoint plus log tail —
	// before serving. nil disables durability. A Store opened with a WAL
	// must be Closed.
	WAL *tkvwal.Options
}

// Store is a sharded transactional key-value store with string values.
type Store struct {
	shards []*shard
	shift  uint // shard index = top bits of the mixed key
	ops    opCounters
	// batches recycles multi-key call state (see batchState): Batch, MGet,
	// ReplApply and the whole-shard cuts plan through it, so their plans
	// allocate nothing per call.
	batches sync.Pool
	// ctrl is the admission controller; nil unless Config.Admission.
	ctrl *controller
	// repl is the replication log; nil unless Config.ReplRing > 0.
	repl *ReplLog
	// wal is the write-ahead log; nil unless Config.WAL. walMu/walSeq are
	// per shard: walMu orders sequence assignment with the WAL append
	// (and with the ring enqueue when both logs are attached); walSeq is
	// the sequence counter when no ring assigns one (guarded by walMu).
	wal     *tkvwal.WAL
	walMu   []sync.Mutex
	walSeq  []uint64
	walStop chan struct{} // stops the checkpoint loop; nil if none
	walDone chan struct{}
	walOnce sync.Once
	// ro gates external writes with ErrNotPrimary (follower role), whatever
	// is attached: Store.write and Batch check it, ReplApply does not.
	ro atomic.Bool
}

// shard is one slice of the key space with its own TM stack.
type shard struct {
	tm    stm.TM
	sched *enginecfg.Sched // scheduler counter handle; nil-safe methods
	kv    *stmds.HashMap[string]
	pool  threadPool
	// ctl is the shard's admission state; nil unless Config.Admission.
	ctl *shardCtl
	// locks is the shard's striped key-lock table: batches hold their
	// keys' stripes exclusively across plan and apply, everything that is
	// atomic as one STM transaction holds its stripes in shared mode, and
	// snapshots hold every stripe in shared mode. See the package comment.
	locks *keylock.Table
	// slots recycles single-key operation state: each slot carries its
	// transaction bodies as pre-bound closures reading their operands from
	// the slot's fields, so Get and Store.write construct no closure and
	// spill no result variable per call (see opSlot).
	slots sync.Pool
	// roStreak counts consecutive read-only snapshot restarts on this
	// shard's read path; roFallbacks counts the reads that were routed to
	// the logging update path because the streak reached roFallbackStreak.
	roStreak    atomic.Uint32
	roFallbacks atomic.Uint64
}

// writeKind names the four single-key writes; it indexes opSlot.write.
type writeKind uint8

const (
	kindPut writeKind = iota
	kindDelete
	kindCAS
	kindAdd
)

// writeOp is one single-key write as Store.write takes it: its kind, its
// key and that kind's operands.
type writeOp struct {
	kind  writeKind
	key   uint64
	val   *string // put: the pre-spilled value cell (see Store.PutRef)
	old   string  // CAS: expected value
	new   string  // CAS: replacement
	delta int64   // Add
}

// opSlot is the pooled state of one single-key operation. The transaction
// bodies (roGet, upGet and one per writeKind) are created once per slot and
// capture only the slot and its shard; per call, Get and Store.write fill
// the in-fields, run the matching pre-bound body, and read the out-fields
// back. This is what makes a steady-state Get or PutRef allocation-free: the
// closure, the escaping result variables, and (for PutRef) the value spill
// were the single-key path's only per-op allocations.
type opSlot struct {
	writeOp        // in: the operation (a Get fills only key)
	outVal  string // out: Get value
	outOK   bool   // out: found / created / deleted / swapped
	outN    int64  // out: Add result

	roGet func(tx *stm.ROTx) error
	upGet func(tx stm.Tx) error
	write [kindAdd + 1]func(tx stm.Tx) error
}

// newOpSlot builds a slot bound to s with all transaction bodies pre-built.
func newOpSlot(s *shard) *opSlot {
	sl := &opSlot{}
	sl.roGet = func(tx *stm.ROTx) error {
		var err error
		sl.outVal, sl.outOK, err = s.kv.GetRO(tx, sl.key)
		return err
	}
	sl.upGet = func(tx stm.Tx) error {
		var err error
		sl.outVal, sl.outOK, err = s.kv.Get(tx, sl.key)
		return err
	}
	sl.write[kindPut] = func(tx stm.Tx) error {
		var err error
		sl.outOK, err = s.kv.PutRef(tx, sl.key, sl.val)
		return err
	}
	sl.write[kindDelete] = func(tx stm.Tx) error {
		var err error
		sl.outOK, err = s.kv.Delete(tx, sl.key)
		return err
	}
	sl.write[kindCAS] = func(tx stm.Tx) error {
		sl.outOK = false
		cur, ok, err := s.kv.Get(tx, sl.key)
		if err != nil {
			return err
		}
		if !ok || cur != sl.old {
			return nil
		}
		if _, err := s.kv.Put(tx, sl.key, sl.new); err != nil {
			return err
		}
		sl.outOK = true
		return nil
	}
	sl.write[kindAdd] = func(tx stm.Tx) error {
		cur, ok, err := s.kv.Get(tx, sl.key)
		if err != nil {
			return err
		}
		n, err := parseCounter(cur, ok, sl.key)
		if err != nil {
			return err
		}
		sl.outN = n + sl.delta
		_, err = s.kv.Put(tx, sl.key, strconv.FormatInt(sl.outN, 10))
		return err
	}
	return sl
}

// release scrubs the slot's string references (so the pool never pins a
// large value) and returns it to the shard's pool.
func (s *shard) release(sl *opSlot) {
	sl.writeOp, sl.outVal = writeOp{}, ""
	s.slots.Put(sl)
}

// opCounters tracks served operations per kind.
type opCounters struct {
	gets, puts, deletes, cas, casMisses, adds          counter
	batches, batchOps, batchCASMisses, mgets, mgetKeys counter
	snapshots                                          counter
}

// Open builds a Store. Every shard gets an independent TM built from the
// same spec, so per-shard schedulers (Shrink in particular) only ever
// serialize traffic within their own shard.
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
	st := &Store{shards: make([]*shard, n), shift: uint(64 - log2(n))}
	st.batches.New = func() any { return newBatchState(st) }
	if cfg.ReplRing > 0 {
		st.repl = newReplLog(n, cfg.ReplRing)
	}
	for i := range st.shards {
		tm, sc, err := enginecfg.Build(enginecfg.Spec{
			Engine:    cfg.Engine,
			Scheduler: cfg.Scheduler,
			Wait:      cfg.Wait,
			Shrink:    cfg.Shrink,
		})
		if err != nil {
			return nil, fmt.Errorf("tkv: shard %d: %w", i, err)
		}
		s := &shard{
			tm:    tm,
			sched: sc,
			kv:    stmds.NewHashMap[string](buckets),
			locks: keylock.New(cfg.LockStripes),
		}
		s.slots.New = func() any { return newOpSlot(s) }
		threads := make([]stm.Thread, poolSize)
		for j := range threads {
			threads[j] = tm.Register(fmt.Sprintf("shard%d-w%d", i, j))
		}
		s.pool.init(threads)
		st.shards[i] = s
	}
	if cfg.WAL != nil {
		st.walMu = make([]sync.Mutex, n)
		st.walSeq = make([]uint64, n)
		if err := st.openWAL(cfg); err != nil {
			return nil, fmt.Errorf("tkv: %w", err)
		}
	}
	if cfg.Admission != nil {
		ac := cfg.Admission.normalized()
		st.ctrl = newController(st, ac)
		for i, s := range st.shards {
			s.ctl = &st.ctrl.shards[i]
			if ac.AdaptStripes {
				sa := ac.StripeAdapt
				if sa.MinStripes == 0 && sa.MaxStripes == 0 {
					sa = keylock.DefaultAdaptConfig(s.locks.Stripes())
				}
				s.locks.EnableAdapt(sa)
			}
		}
		go st.ctrl.run()
	}
	return st, nil
}

// Close stops the admission controller and the WAL (checkpoint loop
// stopped, pending groups flushed, segment files closed). Idempotent; a
// no-op for stores opened without Admission or a WAL.
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
// shard's threads are busy, the caller blocks, which bounds the transaction
// concurrency inside a shard to the pool size. The thread is returned via
// defer so that a panicking transaction body (recovered by net/http on the
// serving path) cannot leak the pool slot.
func (s *shard) atomically(fn func(tx stm.Tx) error) error {
	i := s.pool.claim()
	defer s.pool.release(i)
	return s.pool.threads[i].Atomically(fn)
}

// atomicallyRO is atomically for read-only snapshot transactions: same pool
// discipline, but the borrowed thread runs the validation-free RO protocol
// (no read log, no commit-phase work, no clock tick).
func (s *shard) atomicallyRO(fn func(tx *stm.ROTx) error) error {
	i := s.pool.claim()
	defer s.pool.release(i)
	return s.pool.threads[i].AtomicallyRO(fn)
}

// atomicallyW is atomically for Store.write: when the admission layer is
// on, a transaction that had to restart feeds its key to the shard's
// conflict predictor, so the next write to the same key can be routed
// through the admission queue instead of racing. Without the layer it is
// the plain path. It stays a function of its own because its defer is the
// thread's hold: the thread goes back when the transaction ends, before
// write emits the record, not when write's stripe does.
func (s *shard) atomicallyW(key uint64, fn func(tx stm.Tx) error) error {
	if s.ctl == nil {
		return s.atomically(fn)
	}
	i := s.pool.claim()
	th := s.pool.threads[i]
	before := th.Ctx().Aborts.Load()
	defer func() {
		// The pooled thread is exclusively ours between claim and
		// release, so the abort-counter delta is exactly this call's
		// restart count.
		if d := th.Ctx().Aborts.Load() - before; d > 0 {
			s.ctl.noteConflict(key, d)
		}
		s.pool.release(i)
	}()
	return th.Atomically(fn)
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
// the thread is returned via defer so a panicking body (recovered by
// net/http on the serving path) cannot leak the pool slot.
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
// with the adaptive update-path fallback under RO restart streaks. The
// pooled slot and its pre-bound bodies make the steady-state call
// allocation-free end to end.
func (st *Store) Get(key uint64) (string, bool, error) {
	st.ops.gets.Add(1)
	s := st.shardFor(key)
	i := s.locks.RLockKey(key)
	defer s.locks.RUnlock(i)
	sl := s.slots.Get().(*opSlot)
	sl.key = key
	var err error
	if s.takeFallback() {
		err = s.atomically(sl.upGet)
	} else {
		err = s.roTracked(sl.roGet)
	}
	val, ok := sl.outVal, sl.outOK
	s.release(sl)
	return val, ok, err
}

// write is the single-key write path: Put, Delete, CAS and Add on every
// store, whatever log is attached. The read-only gate, admission, the key's
// stripe and the gate again under it (SetReadOnly(true) waits out every
// stripe, so a write that holds one either finishes before the fence or sees
// it), one update transaction on a pooled slot's pre-bound body, and on a
// logged store the record of the resulting state, emitted before the
// deferred unlock. ok is created / deleted / swapped, n an Add's new counter.
//
// The stripe's mode is the one thing a log changes: exclusive when
// st.logged(), so that two writes to one key reach the log in their commit
// order (see repl.go, "Ordering"); shared otherwise, where the transaction
// alone orders them. The record carries state, not the operation, and only a
// write that changed something has one: a put's value, a tombstone for a
// delete that found its key, a CAS's new value if it swapped, an Add's new
// counter (not the delta, so replay commutes). The returned Commit is the
// WAL's durability handle, nil without one; the callers Wait on it after
// this function's deferred unlock has released the stripe, so fsync latency
// never extends a stripe hold.
func (st *Store) write(op writeOp) (ok bool, n int64, c *tkvwal.Commit, err error) {
	if st.ro.Load() {
		return false, 0, nil, ErrNotPrimary
	}
	sh := st.ShardOf(op.key)
	s := st.shards[sh]
	if s.ctl != nil {
		// Admission may shed the write (ErrBackpressure) or route a key the
		// conflict predictor flags through the admission queue, whose slot
		// is then held for the whole operation.
		routed, err := s.ctl.admitWrite(op.key)
		if err != nil {
			return false, 0, nil, err
		}
		if routed {
			defer s.ctl.q.release()
		}
	}
	logged := st.logged()
	if logged {
		i := s.locks.LockKey(op.key)
		defer s.locks.Unlock(i)
	} else {
		i := s.locks.RLockKey(op.key)
		defer s.locks.RUnlock(i)
	}
	if st.ro.Load() {
		// The fence went up while this write waited for admission or the
		// stripe. SetReadOnly(true) is waiting for this stripe (or has had
		// it already): nothing may commit behind it.
		return false, 0, nil, ErrNotPrimary
	}
	sl := s.slots.Get().(*opSlot)
	sl.writeOp = op
	err = s.atomicallyW(op.key, sl.write[op.kind])
	ok, n = sl.outOK, sl.outN
	s.release(sl)
	if err != nil {
		return false, 0, nil, err
	}
	if op.kind == kindCAS && !ok {
		st.ops.casMisses.Add(1)
		if s.ctl != nil {
			// A CAS miss is a key-level conflict the engine never sees (the
			// compare fails in a committed read); feed it to the predictor
			// all the same.
			s.ctl.noteConflict(op.key, 1)
		}
	}
	// A put and an Add always change their key; a delete and a CAS did iff ok.
	if logged && (ok || op.kind == kindPut || op.kind == kindAdd) {
		e := tkvlog.Entry{Key: op.key}
		switch op.kind {
		case kindPut:
			e.Val = *op.val
		case kindDelete:
			e.Del = true
		case kindCAS:
			e.Val = op.new
		case kindAdd:
			e.Val = strconv.FormatInt(n, 10)
		}
		c = st.logCommit(sh, []tkvlog.Entry{e})
	}
	return ok, n, c, nil
}

// Put stores val under key, reporting whether the key was created. The
// value cell holding val becomes the committed value (PutRef with the
// argument's own cell), so Put costs exactly one allocation — the cell the
// stored value has to live in.
func (st *Store) Put(key uint64, val string) (bool, error) {
	return st.PutRef(key, &val)
}

// PutRef stores the cell *val under key, reporting whether the key was
// created. The cell itself becomes the committed value — the caller cedes
// ownership and must never mutate *val afterwards. A serving edge that
// interns repeated values (the binary wire server does) makes the whole
// put path allocation-free this way.
func (st *Store) PutRef(key uint64, val *string) (bool, error) {
	created, c, err := st.PutRefAsync(key, val)
	if err == nil {
		// The stripe is already released (write's defers ran); parking on
		// the group fsync here keeps I/O latency out of every stripe hold
		// time.
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
	created, _, c, err := st.write(writeOp{kind: kindPut, key: key, val: val})
	return created, c, err
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
	deleted, _, c, err := st.write(writeOp{kind: kindDelete, key: key})
	return deleted, c, err
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
	swapped, _, c, err := st.write(writeOp{kind: kindCAS, key: key, old: old, new: new})
	return swapped, c, err
}

// Add atomically adds delta to the decimal integer stored under key,
// treating a missing key as 0, and returns the new value. A non-numeric
// stored value is a user error (the transaction aborts without retry).
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
	_, out, c, err := st.write(writeOp{kind: kindAdd, key: key, delta: delta})
	return out, c, err
}

// ErrUser marks errors caused by the request content (as opposed to engine
// or server failures); the HTTP layer maps it to a 400. It is wrapped into
// user-abort errors with %w and detected with errors.Is.
var ErrUser = errors.New("tkv: invalid request")

// parseCounter interprets a stored value as an Add counter.
func parseCounter(val string, present bool, key uint64) (int64, error) {
	if !present || val == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: key %d holds non-numeric value %q", ErrUser, key, val)
	}
	return n, nil
}
