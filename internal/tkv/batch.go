package tkv

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// Batch operation kinds. cas is admitted because batch admission is
// key-granular: the batch holds every key's stripe exclusively across both
// the plan and the apply phase, so the value compared in the plan cannot
// change before the apply, and a failed compare can abort the whole batch
// before anything is written anywhere.
const (
	OpGet    = "get"
	OpPut    = "put"
	OpDelete = "delete"
	OpAdd    = "add"
	OpCAS    = "cas"
)

// ErrCASMismatch is returned by Batch when a cas op's compare failed. The
// whole batch aborts — no op of the batch writes anything — and the result
// slice returned alongside the error carries CASMismatch on the failing op.
// It is an outcome, not a malformed request: the HTTP layer maps it to 409.
var ErrCASMismatch = errors.New("tkv: batch cas compare failed")

// Op is one operation of a batch, JSON-shaped for the HTTP API. For cas,
// Old is the expected current value and Value the replacement (a missing
// key never matches, as in Store.CAS).
type Op struct {
	Kind  string `json:"op"`
	Key   uint64 `json:"key"`
	Value string `json:"value,omitempty"`
	Old   string `json:"old,omitempty"`
	Delta int64  `json:"delta,omitempty"`
}

// OpResult is the per-op outcome of a batch. For get: the value and whether
// the key was present. For put: Found reports whether the key already
// existed. For delete: whether it was present. For add: Value is the new
// counter value. For cas: Found reports presence; on a failed compare
// CASMismatch is set, Value holds the actual current value, and the batch
// as a whole returns ErrCASMismatch.
type OpResult struct {
	Found       bool   `json:"found"`
	Value       string `json:"value,omitempty"`
	CASMismatch bool   `json:"casMismatch,omitempty"`
}

// plannedWrite is the phase-one decision for one mutating op: the key and
// the value cell to store, nil for a delete. The cell is the one allocation
// a planned put makes — the overlay reads through it while the batch plans
// and phase two hands the same cell to the shard's map (kv.PutRef), where
// it becomes the committed value.
type plannedWrite struct {
	key uint64
	val *string
}

// opStore is the key-space view a batch op executes against. The
// single-shard fast path binds it to direct STM operations; the cross-shard
// planner binds it to an overlay that records writes for a later apply
// phase. Keeping one executor (execOp) over this interface guarantees both
// paths produce identical OpResult semantics.
type opStore struct {
	read func(key uint64) (string, bool, error)
	put  func(key uint64, val string) error
	del  func(key uint64) error
}

// validKind reports whether k names a batch op kind.
func validKind(k string) bool {
	switch k {
	case OpGet, OpPut, OpDelete, OpAdd, OpCAS:
		return true
	}
	return false
}

// execOp runs one validated batch op against a view and returns its result.
// A cas mismatch returns both the describing result and ErrCASMismatch; the
// caller aborts the batch and surfaces the result.
func execOp(op *Op, v *opStore) (OpResult, error) {
	switch op.Kind {
	case OpGet:
		val, ok, err := v.read(op.Key)
		return OpResult{Found: ok, Value: val}, err
	case OpPut:
		_, ok, err := v.read(op.Key)
		if err != nil {
			return OpResult{}, err
		}
		return OpResult{Found: ok}, v.put(op.Key, op.Value)
	case OpDelete:
		_, ok, err := v.read(op.Key)
		if err != nil {
			return OpResult{}, err
		}
		if ok {
			if err := v.del(op.Key); err != nil {
				return OpResult{}, err
			}
		}
		return OpResult{Found: ok}, nil
	case OpAdd:
		cur, ok, err := v.read(op.Key)
		if err != nil {
			return OpResult{}, err
		}
		n, err := parseCounter(cur, ok, op.Key)
		if err != nil {
			return OpResult{}, err
		}
		val := strconv.FormatInt(n+op.Delta, 10)
		return OpResult{Found: ok, Value: val}, v.put(op.Key, val)
	case OpCAS:
		cur, ok, err := v.read(op.Key)
		if err != nil {
			return OpResult{}, err
		}
		if !ok || cur != op.Old {
			return OpResult{Found: ok, Value: cur, CASMismatch: true},
				fmt.Errorf("%w: key %d", ErrCASMismatch, op.Key)
		}
		return OpResult{Found: true}, v.put(op.Key, op.Value)
	default:
		return OpResult{}, fmt.Errorf("%w: unknown batch op kind %q", ErrUser, op.Kind)
	}
}

// stripeRef names one stripe of one shard. Lock order everywhere in the
// store is ascending (shard, stripe) — the single global order that makes
// batches, multi-key reads and snapshots mutually deadlock-free.
type stripeRef struct{ shard, stripe int }

// lockPlan is a batch's determined stripe set: the (shard, stripe) pairs
// covering every key the batch touches, strictly ascending in the global
// lock order (buildLocks and lockShard build it that way).
type lockPlan []stripeRef

// lock acquires the plan's stripes in order; exclusive selects the mode.
// unlock with the same arguments releases them. An exclusive acquisition
// additionally brackets each participating shard with the table's
// Enter/Exit session gate (taken just before the shard's first stripe, so
// the global order is shard gate < shard stripes < next shard's gate):
// that is what lets the snapshot path exclude in-flight batches in O(1)
// per shard instead of walking every stripe.
//
// Every acquisition is checked against the generation the plan was built
// from (vers, indexed by shard); when a concurrent stripe-table resize has
// retired it, lock releases everything it holds and returns false, and the
// caller rebuilds the plan against the new generation. Mixed-generation
// plans can never lock the wrong stripe: versions are monotonic, so at most
// one shard's table matches any stale plan, and its indices are still
// checked.
func (st *Store) lock(plan lockPlan, vers []uint64, exclusive bool) bool {
	entered := -1
	for n, r := range plan {
		tab := st.shards[r.shard].locks
		if exclusive && r.shard != entered {
			tab.Enter()
			entered = r.shard
		}
		var ok bool
		if exclusive {
			ok = tab.LockV(r.stripe, vers[r.shard])
		} else {
			ok = tab.RLockV(r.stripe, vers[r.shard])
		}
		if !ok {
			// Stale generation: roll back the prefix. unlock exits the
			// gate of every shard with a held stripe in the prefix; the
			// shard we just entered has none when the failing stripe was
			// its first, so exit it here.
			st.unlock(plan[:n], exclusive)
			if exclusive && (n == 0 || plan[n-1].shard != r.shard) {
				tab.Exit()
			}
			return false
		}
	}
	return true
}

// unlock releases a plan acquired by lock. A shard's session gate is
// exited only after its last stripe is released (the plan is shard-sorted,
// so the last stripe is where the shard changes): keylock's contract is
// that a Freeze acquiring the gate must find no session stripes still
// held.
func (st *Store) unlock(plan lockPlan, exclusive bool) {
	for i, r := range plan {
		if exclusive {
			st.shards[r.shard].locks.Unlock(r.stripe)
			if i+1 == len(plan) || plan[i+1].shard != r.shard {
				st.shards[r.shard].locks.Exit()
			}
		} else {
			st.shards[r.shard].locks.RUnlock(r.stripe)
		}
	}
}

// shardGroup is one participating shard of a planned call: its op indices
// are order[lo:hi], in input order, and once phase one has run its planned
// writes are writes[wlo:whi].
type shardGroup struct {
	shard    int
	lo, hi   int
	wlo, whi int
}

// maxPooledKeys bounds the scratch a pooled batchState may keep: a state
// that planned a larger call is dropped instead of pooled, so one outsized
// batch cannot leave the pool holding its plan slices and a huge overlay
// map for the small calls that follow.
const maxPooledKeys = 1024

// overlayScanMax is the number of planned writes of one shard group up to
// which the overlay is the group's window of writes itself, scanned
// backwards (the stm.WriteIndex idiom: a handful of keys on a cache line or
// two beats any hashing, and nothing has to be cleared between plan bodies).
// A group that plans more is indexed by the overlay map.
const overlayScanMax = 8

// batchState is the pooled state of one multi-key call. Batch, MGet,
// ReplApply and the whole-shard cuts all plan through it: group the keys by
// shard, build and acquire the stripe set, run one transaction per shard
// group. It is built the way opSlot is — the transaction bodies and the two
// opStore views are created once per state and read their operands from its
// fields, so a call constructs no closure — and the plan itself lives in
// flat slices that are reused from call to call. What a call still
// allocates is what it hands away (see Batch and MGet).
type batchState struct {
	st *Store

	// The call: ops is Batch's input (nil for the other callers), keys
	// holds one key per op in input order, results is where the bodies
	// write.
	ops     []Op
	keys    []uint64
	results []OpResult

	// The plan. order holds the op indices grouped by shard (a counting
	// sort over count, which afterwards maps a shard to its group), vers
	// the keylock generation the stripe set in locks was built against
	// (both indexed by shard). writes is every group's planned writes back
	// to back; the running group's window of it, writes[g.wlo:], is that
	// group's overlay, and once the window outgrows overlayScanMax the
	// overlay map indexes it (key to latest entry; see planWrite). commits
	// collects the emitted records' durability handles.
	count   []int
	order   []int
	groups  []shardGroup
	vers    []uint64
	locks   lockPlan
	writes  []plannedWrite
	overlay map[uint64]int
	commits []*tkvwal.Commit

	// Operands of the running transaction body: the group and its shard
	// (see enter), the attempt's transaction, and the index of the op a
	// cas compare failed on.
	g      *shardGroup
	s      *shard
	tx     stm.Tx
	roTx   *stm.ROTx
	failed int

	planned opStore // reads through the overlay, records writes
	direct  opStore // straight onto tx

	planBody   func(tx *stm.ROTx) error
	applyBody  func(tx stm.Tx) error
	directBody func(tx stm.Tx) error
	readRO     func(tx *stm.ROTx) error
	readUp     func(tx stm.Tx) error
}

// newBatchState builds a state bound to st with every closure pre-built.
func newBatchState(st *Store) *batchState {
	b := &batchState{
		st:      st,
		count:   make([]int, len(st.shards)),
		vers:    make([]uint64, len(st.shards)),
		overlay: make(map[uint64]int),
	}
	b.planned = opStore{
		// The overlay carries the writes of earlier ops of this batch, so
		// a later op on the same key reads the latest of them.
		read: func(key uint64) (string, bool, error) {
			if i := b.latestWrite(key); i >= 0 {
				if cell := b.writes[i].val; cell != nil {
					return *cell, true, nil
				}
				return "", false, nil
			}
			return b.s.kv.GetRO(b.roTx, key)
		},
		put: func(key uint64, val string) error {
			b.planWrite(key, &val) // val's heap cell is the write's one allocation
			return nil
		},
		del: func(key uint64) error {
			b.planWrite(key, nil)
			return nil
		},
	}
	b.direct = opStore{
		read: func(key uint64) (string, bool, error) { return b.s.kv.Get(b.tx, key) },
		put: func(key uint64, val string) error {
			_, err := b.s.kv.Put(b.tx, key, val)
			return err
		},
		del: func(key uint64) error {
			_, err := b.s.kv.Delete(b.tx, key)
			return err
		},
	}
	// Phase one of the running group. An RO attempt can restart after it
	// has planned writes: drop them, or the next attempt would read its
	// predecessor's overlay (an add would count twice). Emptying the window
	// drops the map with it: planWrite rebuilds the map from nothing when
	// the window next outgrows the scan.
	b.planBody = func(tx *stm.ROTx) error {
		b.writes = b.writes[:b.g.wlo]
		b.roTx = tx
		return b.execOps(b.order[b.g.lo:b.g.hi], &b.planned)
	}
	// Phase two of the running group. Redundant writes to one key apply in
	// plan order, so the last one wins, matching the overlay.
	b.applyBody = func(tx stm.Tx) error {
		for _, w := range b.writes[b.g.wlo:b.g.whi] {
			var err error
			if w.val == nil {
				_, err = b.s.kv.Delete(tx, w.key)
			} else {
				_, err = b.s.kv.PutRef(tx, w.key, w.val)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	// A single-shard batch as one update transaction (one group, so order
	// is the identity).
	b.directBody = func(tx stm.Tx) error {
		b.tx = tx
		return b.execOps(b.order, &b.direct)
	}
	b.readRO = func(tx *stm.ROTx) error {
		for _, i := range b.order[b.g.lo:b.g.hi] {
			val, ok, err := b.s.kv.GetRO(tx, b.keys[i])
			if err != nil {
				return err
			}
			b.results[i] = OpResult{Found: ok, Value: val}
		}
		return nil
	}
	b.readUp = func(tx stm.Tx) error {
		for _, i := range b.order[b.g.lo:b.g.hi] {
			val, ok, err := b.s.kv.Get(tx, b.keys[i])
			if err != nil {
				return err
			}
			b.results[i] = OpResult{Found: ok, Value: val}
		}
		return nil
	}
	return b
}

// batch takes a state from the store's pool; the caller releases it.
func (st *Store) batch() *batchState { return st.batches.Get().(*batchState) }

// release scrubs every reference the call left behind — the caller's ops
// and results, the planned value cells, the durability handles — so the
// pool never pins a large value, and returns the state to the pool.
func (b *batchState) release() {
	if cap(b.keys) > maxPooledKeys {
		return
	}
	b.ops, b.results = nil, nil
	b.keys = b.keys[:0]
	clear(b.writes)
	b.writes = b.writes[:0]
	clear(b.commits)
	b.commits = b.commits[:0]
	b.g, b.s, b.tx, b.roTx = nil, nil, nil, nil
	b.st.batches.Put(b)
}

// plan groups the call's keys by shard and builds their stripe set; lock
// acquires it.
func (b *batchState) plan() {
	b.group()
	b.buildLocks()
}

// group sorts the op indices by owning shard into order, preserving input
// order within a shard, and records each participating shard's window in
// groups (ascending shard index): a counting sort, O(keys + shards).
func (b *batchState) group() {
	st := b.st
	clear(b.count)
	for _, k := range b.keys {
		b.count[st.ShardOf(k)]++
	}
	b.groups = b.groups[:0]
	off := 0
	for sh, n := range b.count {
		if n == 0 {
			continue
		}
		b.count[sh] = len(b.groups) // from here on: the shard's group index
		b.groups = append(b.groups, shardGroup{shard: sh, lo: off, hi: off})
		off += n
	}
	b.order = slices.Grow(b.order[:0], len(b.keys))[:len(b.keys)]
	for i, k := range b.keys {
		g := &b.groups[b.count[st.ShardOf(k)]]
		b.order[g.hi] = i
		g.hi++
	}
}

// buildLocks plans the stripe set of the grouped keys against the shards'
// current keylock generations. The groups ascend by shard and each key's
// stripe is inserted into its group's sorted window of the plan (dropped if
// already there), so the plan is born strictly ascending in the global lock
// order: a batch must never lock a stripe twice or out of order.
func (b *batchState) buildLocks() {
	b.locks = b.locks[:0]
	for _, g := range b.groups {
		tab := b.st.shards[g.shard].locks
		b.vers[g.shard] = tab.Version()
		lo := len(b.locks)
		for _, i := range b.order[g.lo:g.hi] {
			stripe := tab.StripeOf(b.keys[i])
			j := len(b.locks)
			for j > lo && b.locks[j-1].stripe > stripe {
				j--
			}
			if j > lo && b.locks[j-1].stripe == stripe {
				continue
			}
			// Shifted by hand: for the handful of entries a window holds,
			// slices.Insert measured dearer than the sort it replaced.
			b.locks = append(b.locks, stripeRef{})
			for k := len(b.locks) - 1; k > j; k-- {
				b.locks[k] = b.locks[k-1]
			}
			b.locks[j] = stripeRef{shard: g.shard, stripe: stripe}
		}
	}
}

// lock acquires the planned stripe set. When an adaptive resize retires a
// generation mid-acquisition, Store.lock backs out and the set is rebuilt
// (rare: resizes happen on the controller's tick, not the request path).
func (b *batchState) lock(exclusive bool) {
	for !b.st.lock(b.locks, b.vers, exclusive) {
		b.buildLocks()
	}
}

// lockShard acquires every stripe of one shard, retrying across resizes.
func (b *batchState) lockShard(shard int, exclusive bool) {
	tab := b.st.shards[shard].locks
	for {
		b.vers[shard] = tab.Version()
		b.locks = b.locks[:0]
		for i, n := 0, tab.Stripes(); i < n; i++ {
			b.locks = append(b.locks, stripeRef{shard: shard, stripe: i})
		}
		if b.st.lock(b.locks, b.vers, exclusive) {
			return
		}
	}
}

// unlock releases what lock or lockShard acquired.
func (b *batchState) unlock(exclusive bool) { b.st.unlock(b.locks, exclusive) }

// enter makes group gi the operand of the next transaction body and
// returns its shard.
func (b *batchState) enter(gi int) *shard {
	b.g = &b.groups[gi]
	b.s = b.st.shards[b.g.shard]
	return b.s
}

// planWrite records one planned write (nil cell: a delete) of the running
// group. The write that makes the group's window outgrow overlayScanMax
// builds the overlay map over the whole window, from empty — whatever an
// earlier group, an earlier call or a restarted attempt of this plan body
// left in it is stale; later writes add themselves.
func (b *batchState) planWrite(key uint64, cell *string) {
	b.writes = append(b.writes, plannedWrite{key: key, val: cell})
	switch n := len(b.writes) - b.g.wlo; {
	case n == overlayScanMax+1:
		clear(b.overlay)
		for i := b.g.wlo; i < len(b.writes); i++ {
			b.overlay[b.writes[i].key] = i
		}
	case n > overlayScanMax+1:
		b.overlay[key] = len(b.writes) - 1
	}
}

// latestWrite returns the index in writes of the running group's latest
// planned write to key, or -1 if it has planned none.
func (b *batchState) latestWrite(key uint64) int {
	if len(b.writes)-b.g.wlo > overlayScanMax {
		if i, ok := b.overlay[key]; ok {
			return i
		}
		return -1
	}
	for i := len(b.writes) - 1; i >= b.g.wlo; i-- {
		if b.writes[i].key == key {
			return i
		}
	}
	return -1
}

// execOps runs the ops at idxs against a view, stopping at the first error
// and remembering which op it was.
func (b *batchState) execOps(idxs []int, v *opStore) error {
	for _, i := range idxs {
		var err error
		if b.results[i], err = execOp(&b.ops[i], v); err != nil {
			b.failed = i
			return err
		}
	}
	return nil
}

// readGroups is the read-only path (MGet, a get-only Batch): shared
// stripes, each shard group in one read-only snapshot transaction with the
// adaptive update-path fallback under RO restart streaks.
func (b *batchState) readGroups() error {
	b.lock(false)
	defer b.unlock(false)
	for gi := range b.groups {
		s := b.enter(gi)
		var err error
		if s.takeFallback() {
			err = s.atomically(b.readUp)
		} else {
			err = s.roTracked(b.readRO)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runDirect is the single-shard path of an unlogged store: the batch is
// atomic by the STM alone — one transaction, read-own-writes courtesy of the
// engine's write log — so shared stripes suffice and the plan/apply split
// is unnecessary.
func (b *batchState) runDirect() error {
	b.lock(false)
	defer b.unlock(false)
	if b.st.ro.Load() {
		return ErrNotPrimary // fenced while waiting for the stripes; see SetReadOnly
	}
	return b.enter(0).atomically(b.directBody)
}

// runTwoPhase is the cross-shard (or logged) path: phase one plans under
// the batch's exclusive stripes, phase two applies and emits one log record
// per shard into commits. The deferred unlock fires before Batch waits on
// those handles: the batch parks on its records' group fsyncs with no
// stripe held, exactly like the single-key write path (Store.write).
func (b *batchState) runTwoPhase() error {
	st := b.st
	b.lock(true)
	defer b.unlock(true)
	if st.ro.Load() {
		return ErrNotPrimary // fenced while waiting for the stripes; see SetReadOnly
	}

	// Phase one: one read-only snapshot transaction per shard. It performs
	// no STM writes (mutations land in the overlay), and the RO mode
	// revalidates for free against the single-key traffic that striping
	// lets through on the batch's shards.
	for gi := range b.groups {
		s := b.enter(gi)
		b.g.wlo = len(b.writes)
		if err := s.atomicallyRO(b.planBody); err != nil {
			return err
		}
		b.g.whi = len(b.writes)
	}

	// Phase two: apply. The exclusive stripes keep the plan fresh (no one
	// else can have written these keys since phase one); conflicts with
	// unrelated traffic on shared bucket chains are resolved by the STM's
	// ordinary retry.
	for gi := range b.groups {
		s := b.enter(gi)
		if b.g.wlo == b.g.whi {
			continue
		}
		if err := s.atomically(b.applyBody); err != nil {
			// Phase-two bodies only write planned keys and cannot fail
			// with user errors; an engine error here is fatal to the
			// batch's atomicity and surfaced loudly.
			return fmt.Errorf("batch apply on shard %d: %w", b.g.shard, err)
		}
		if st.logged() {
			// Still under the batch's exclusive stripes, so the record's
			// log position matches its commit position for every key it
			// writes.
			b.commits = append(b.commits, st.emitPlan(b.g.shard, b.writes[b.g.wlo:b.g.whi]))
		}
	}
	return nil
}

// Batch executes ops atomically across shards. Admission is per key: the
// batch determines its key set up front and acquires exactly those keys'
// stripes, so batches over disjoint key sets — even of the same shard —
// run concurrently, and single-key traffic is only ever paused on the
// stripes a batch actually holds.
//
// A batch that only reads (every op a get) holds its stripes in shared mode
// and reads each shard's group in one read-only snapshot transaction, as
// MGet does: it writes nothing, so it needs no exclusion of its own. A
// mutating batch confined to one shard runs as a single STM transaction
// under shared stripes (the engine makes it atomic; the stripes only
// exclude multi-phase batches from its keys) — unless a log is attached
// (replication ring or WAL), whose record must be emitted under exclusive
// stripes to keep log order equal to commit order (see repl.go). Every
// other batch two-phases: phase one holds the exclusive stripes and
// reads/plans all operations in one read-only snapshot transaction per
// shard (writes go to an overlay so later ops read earlier ops' effects);
// phase two applies the planned writes, one update transaction per shard.
// Because the exclusive stripes are held across both phases, the plan
// cannot go stale between them, a validation error (a cas mismatch, an add
// over a non-numeric value) aborts before anything is written, and no
// concurrent access observes a partially applied batch.
//
// The plan lives in a pooled batchState, so a call allocates only what it
// hands away: the result slice, one value cell per planned write (the cell
// becomes the stored value), the decimal string of each add, and with a
// log attached the records it emits.
func (st *Store) Batch(ops []Op) ([]OpResult, error) {
	st.ops.batches.Add(1)
	st.ops.batchOps.Add(uint64(len(ops)))
	if len(ops) == 0 {
		return nil, nil
	}
	mutates := false
	for i := range ops {
		if ops[i].Kind != OpGet {
			mutates = true
			break
		}
	}
	if mutates && st.ro.Load() {
		// Followers serve reads: only a batch that mutates is bounced.
		return nil, ErrNotPrimary
	}
	// Low-priority shed: past the overload knee, batches are pushed back
	// before any planning or locking — they are the heaviest admissions
	// and the cheapest to retry (see controller.shedLowPriority).
	if st.ctrl != nil && st.ctrl.shedLowPriority() {
		return nil, ErrBackpressure
	}

	b := st.batch()
	defer b.release()
	for i := range ops {
		if !validKind(ops[i].Kind) {
			return nil, fmt.Errorf("%w: batch op %d: unknown kind %q", ErrUser, i, ops[i].Kind)
		}
		b.keys = append(b.keys, ops[i].Key)
	}
	b.ops = ops
	b.plan()
	results := make([]OpResult, len(ops))
	b.results = results

	var err error
	switch {
	case !mutates:
		err = b.readGroups()
	case len(b.groups) == 1 && !st.logged():
		err = b.runDirect()
	default:
		// Wound-wait admission: a batch that would hold many exclusive
		// stripes passes the admission queue before holding anything, so
		// stripe-heavy batches cannot starve hot single-key traffic and
		// young ones are wounded instead of convoying.
		if st.ctrl != nil && len(b.locks) >= st.ctrl.cfg.LargeBatchStripes {
			if err := st.ctrl.q.acquire(); err != nil {
				return nil, err
			}
			defer st.ctrl.q.release()
		}
		err = b.runTwoPhase()
	}
	if errors.Is(err, ErrCASMismatch) {
		// Nothing was written (the direct path's transaction rolled back,
		// the two-phase path never reached phase two). Only the failing
		// op's result is kept: reporting, say, an add's would-have-been
		// counter value would only invite misreading.
		st.ops.batchCASMisses.Add(1)
		miss := results[b.failed]
		clear(results)
		results[b.failed] = miss
		return results, err
	}
	if err != nil {
		return nil, err
	}
	for _, c := range b.commits {
		if werr := c.Wait(); werr != nil {
			return nil, werr
		}
	}
	return results, nil
}
