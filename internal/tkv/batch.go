package tkv

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// OpKind is an operation's kind. Its values are the batch frame's kind
// codes on the wire, which carries the byte as it is.
type OpKind uint8

// The operation kinds (see exec for what each does). cas is admitted in a
// batch because a batch is one STM transaction: the compare and the write it
// guards commit together or not at all, and a failed compare aborts the whole
// batch before anything is written anywhere. Any other value is a user
// error.
const (
	OpGet OpKind = iota
	OpPut
	OpDelete
	OpAdd
	OpCAS
)

// ErrCASMismatch is returned by Batch when a cas op's compare failed. The
// whole batch aborts — no op of the batch writes anything — and the result
// slice returned alongside the error carries CASMismatch on the failing op.
// It is an outcome, not a malformed request: the wire protocol maps it to
// StatusCASMismatch.
var ErrCASMismatch = errors.New("tkv: batch cas compare failed")

// Op is one operation of a batch. For cas, Old is the expected current value
// and Value the replacement (a missing key never matches, as in Store.CAS).
type Op struct {
	Kind  OpKind `json:"op"`
	Key   uint64 `json:"key"`
	Value string `json:"value,omitempty"`
	Old   string `json:"old,omitempty"`
	Delta int64  `json:"delta,omitempty"`
}

// OpResult is the per-op outcome of a batch. For get: the value and whether
// the key was present. For put: Found reports whether the key already
// existed (it was not created). For delete: whether it was present. For
// add: Value is the new counter value; an add over a non-numeric value, or
// one whose sum overflows int64, is a user error (wrapping ErrUser) that
// aborts the whole batch, which then writes nothing. For cas: Found reports
// presence; on a failed compare CASMismatch is set, Value holds the actual
// current value, and the batch as a whole returns ErrCASMismatch.
//
// The two flags follow the string, which keeps a result at 24 bytes: eight
// of them fit the allocator's 192-byte size class.
type OpResult struct {
	Value       string `json:"value,omitempty"`
	Found       bool   `json:"found"`
	CASMismatch bool   `json:"casMismatch,omitempty"`
}

// exec runs op in tx on kv, the map of the op's shard. It is the one place
// that says what each op kind does, for a batch's ops and the single-key
// calls alike: what the op reads and writes, what it returns, and the log
// entry it leaves.
//
//   - get reads the value.
//   - put stores cell, or a header cell over op.Value when cell is nil,
//     without reading the value it overwrites; Found reports that the key
//     existed.
//   - delete, add and cas read the key's value cell before they write it.
//     Every write of a key so reads or overwrites that cell, and two writes
//     to one key meet on it (see repl.go, "Ordering"). A delete needs the
//     read most: the map's delete unlinks the key's node without touching
//     its value, and a logged delete that never met a put's lock on that
//     cell could commit and append ahead of a put that validated first.
//   - add stores the counter plus op.Delta (a missing key counts as 0);
//     Value and n are the new counter. Its digits go into a stack buffer and
//     from there into one NewCell, at any counter size. A non-numeric
//     counter, or a sum past int64, is a user error.
//   - cas stores a header cell over op.Value if the value is op.Old, and a
//     missing key never matches. A mismatch writes nothing and sets
//     CASMismatch, with Value the value found: the single-key CAS commits
//     it as a miss, a batch aborts on it.
//   - any other kind is a user error.
//
// The entry is the resulting state, not the operation: a put's value, a
// tombstone, a swapped cas's new value, an add's new counter (not the
// delta, so replay commutes). wrote reports whether the op wrote, and so
// leaves an entry; a delete of a missing key and a cas mismatch do not.
func exec(tx stm.Tx, kv *stmds.HashMap[string], op *Op, cell *string) (r OpResult, n int64, e tkvlog.Entry, wrote bool, err error) {
	e.Key = op.Key
	if op.Kind == OpPut {
		if cell == nil {
			v := op.Value
			cell = &v
		}
		created, err := kv.PutRef(tx, op.Key, cell)
		e.Val = *cell
		return OpResult{Found: !created}, 0, e, true, err
	}
	if op.Kind > OpCAS {
		return r, 0, e, false, fmt.Errorf("%w: unknown op kind %d", ErrUser, op.Kind)
	}
	cur, ok, err := kv.Get(tx, op.Key)
	if err != nil || op.Kind == OpGet {
		return OpResult{Value: cur, Found: ok}, 0, e, false, err
	}
	switch op.Kind {
	case OpDelete:
		if !ok {
			return r, 0, e, false, nil
		}
		e.Del = true
		_, err = kv.Delete(tx, op.Key)
	case OpAdd:
		if n, err = addCounter(cur, ok, op.Key, op.Delta); err != nil {
			return r, 0, e, false, err
		}
		var digits [20]byte // the longest int64, "-9223372036854775808"
		cell = NewCell(strconv.AppendInt(digits[:0], n, 10))
		e.Val = *cell
		r.Value = e.Val
		_, err = kv.PutRef(tx, op.Key, cell)
	case OpCAS:
		if !ok || cur != op.Old {
			return OpResult{Value: cur, Found: ok, CASMismatch: true}, 0, e, false, nil
		}
		v := op.Value
		e.Val = v
		_, err = kv.PutRef(tx, op.Key, &v)
	}
	r.Found = ok
	return r, n, e, true, err
}

// shardGroup is one participating shard of a multi-key call: its op indices
// are order[lo:hi], in input order, and on a logged store the writes the
// running attempt made there are writes[wlo:whi].
type shardGroup struct {
	shard    int
	lo, hi   int
	wlo, whi int
}

// maxPooledKeys bounds the scratch a pooled batchState may keep: a state
// that served a larger call is dropped instead of pooled, so one outsized
// batch cannot leave the pool holding its slices for the small calls that
// follow.
const maxPooledKeys = 1024

// batchState is the pooled state of one multi-key call. Batch, MGet,
// ReplApply, ReplRestoreShard and WAL recovery all go through it: group the
// keys by shard, enter the gates the call's kind needs, run one transaction.
// A batch's ops run through exec, as the single-key writes do. The state is
// built the way opSlot is — the transaction bodies and the commit hook are
// created once per state and read their operands, the store included, from
// its fields, so a call constructs no closure — and the grouping lives
// in flat slices that are reused from call to call, by whichever store the
// state serves next. What a call still allocates is what it hands away (see
// Batch and MGet).
type batchState struct {
	st *Store // the call's store; nil while pooled

	// The call: ops is Batch's input (nil for the other callers), keys
	// holds one key per op in input order, results is where the bodies
	// write.
	ops     []Op
	keys    []uint64
	results []OpResult

	// The grouping. order holds the op indices grouped by shard (a counting
	// sort over count, which is indexed by shard — batch sizes it to the
	// store's shard count — and afterwards maps a shard to its group).
	// writes is, on a logged store, the running attempt's writes group by
	// group, which become the groups' records; for applyBody it is what to
	// write. seq is the number logWrites gives the records: 0 (the next) for
	// a batch, the primary's for ReplApply. commits collects the emitted
	// records' durability handles.
	count   []int
	order   []int
	groups  []shardGroup
	writes  []tkvlog.Entry
	seq     uint64
	commits []*tkvwal.Commit

	// Operands of the running transaction body: the shard of the running
	// group, and the index of the op that ended the attempt.
	s      *shard
	failed int

	updateBody func(tx stm.Tx) error
	applyBody  func(tx stm.Tx) error
	readRO     func(tx *stm.ROTx) error
	readUp     func(tx stm.Tx) error
	logWrites  func()
}

// newBatchState builds an unbound state with every closure pre-built.
func newBatchState() *batchState {
	b := &batchState{}
	// A mutating batch: every group's ops in one update transaction, group
	// after group, each op on its own shard's map. A restarted attempt
	// redoes the ops from the top, so it drops what the last one recorded.
	b.updateBody = func(tx stm.Tx) error {
		clear(b.writes)
		b.writes = b.writes[:0]
		for gi := range b.groups {
			g := &b.groups[gi]
			b.s = b.st.shards[g.shard]
			g.wlo = len(b.writes)
			if err := b.execOps(tx, b.order[g.lo:g.hi]); err != nil {
				return err
			}
			g.whi = len(b.writes)
		}
		return nil
	}
	// Log entries onto one shard, b.s: a recovered or replicated record, or
	// a restore's tombstones and pairs. Redundant writes to one key apply in
	// order, so the last one wins. Each value becomes a cell of its own
	// (NewCell), and the entry takes the cell's bytes, so the record a
	// follower logs shares them and the decoded copy dies here.
	b.applyBody = func(tx stm.Tx) error {
		for i := range b.writes {
			e := &b.writes[i]
			var err error
			if e.Del {
				_, err = b.s.kv.Delete(tx, e.Key)
			} else {
				cell := NewCell(e.Val)
				e.Val = *cell
				_, err = b.s.kv.PutRef(tx, e.Key, cell)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	b.readRO = func(tx *stm.ROTx) error {
		for _, g := range b.groups {
			kv := b.st.shards[g.shard].kv
			for _, i := range b.order[g.lo:g.hi] {
				val, ok, err := kv.GetRO(tx, b.keys[i])
				if err != nil {
					return err
				}
				b.results[i] = OpResult{Value: val, Found: ok}
			}
		}
		return nil
	}
	b.readUp = func(tx stm.Tx) error {
		for _, g := range b.groups {
			kv := b.st.shards[g.shard].kv
			for _, i := range b.order[g.lo:g.hi] {
				val, ok, err := kv.Get(tx, b.keys[i])
				if err != nil {
					return err
				}
				b.results[i] = OpResult{Value: val, Found: ok}
			}
		}
		return nil
	}
	// The commit hook of a logged batch or ReplApply: one record per group
	// that wrote something, ascending by shard, each owning its entries (the
	// window and its readers alias them). The engine calls it once, for the
	// committing attempt, whose writes b.writes holds.
	b.logWrites = func() {
		for _, g := range b.groups {
			if g.whi > g.wlo {
				b.commits = append(b.commits, b.st.logCommit(g.shard, b.seq, slices.Clone(b.writes[g.wlo:g.whi])))
			}
		}
	}
	return b
}

// batch takes a state from the pool and binds it to st; the caller releases
// it. The per-shard count is re-sized only when the state last served a
// store with another shard count (and re-allocated only when it has never
// served one this wide).
func (st *Store) batch() *batchState {
	b := batchPool.Get().(*batchState)
	b.st = st
	if n := len(st.shards); len(b.count) != n {
		b.count = slices.Grow(b.count[:0], n)[:n]
	}
	return b
}

// release unbinds the state and scrubs every reference the call left
// behind — the caller's ops and results, the recorded values, the
// durability handles — so the pool never pins a store or a large value, and
// returns the state to the pool.
func (b *batchState) release() {
	if cap(b.keys) > maxPooledKeys || cap(b.writes) > maxPooledKeys {
		return
	}
	b.ops, b.results = nil, nil
	b.keys = b.keys[:0]
	clear(b.writes)
	b.writes = b.writes[:0]
	clear(b.commits)
	b.commits = b.commits[:0]
	b.st, b.s, b.seq = nil, nil, 0
	batchPool.Put(b)
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

// enterGates enters every participating shard's gate, ascending, and
// exitGates leaves them: all a mutating batch holds, so that a freeze (a
// snapshot, a cut, SetReadOnly) finds it either finished or not begun.
func (b *batchState) enterGates() {
	for _, g := range b.groups {
		b.st.shards[g.shard].gate.enter()
	}
}

func (b *batchState) exitGates() {
	for _, g := range b.groups {
		b.st.shards[g.shard].gate.exit()
	}
}

// first is the shard of the first group: it lends the thread a multi-key
// transaction runs on, whatever shards the transaction touches.
func (b *batchState) first() *shard { return b.st.shards[b.groups[0].shard] }

// execOps runs the ops at idxs on the running group's shard, recording the
// entries they leave on a logged store. It stops at the first error, or at
// a cas mismatch, which aborts the batch, and remembers which op it was.
func (b *batchState) execOps(tx stm.Tx, idxs []int) error {
	logged := b.st.logged()
	for _, i := range idxs {
		r, _, e, wrote, err := exec(tx, b.s.kv, &b.ops[i], nil)
		b.results[i] = r
		if err == nil && r.CASMismatch {
			err = fmt.Errorf("%w: key %d", ErrCASMismatch, e.Key)
		}
		if err != nil {
			b.failed = i
			return err
		}
		if wrote && logged {
			b.writes = append(b.writes, e)
		}
	}
	return nil
}

// read is the read-only path (MGet, a get-only Batch): one read-only
// snapshot transaction over every group, with the first group's shard's
// adaptive update-path fallback under RO restart streaks. The engine makes
// the read an atomic cut across the shards, and, like Get, it takes nothing
// else: it sees a write only once the write's record is in the log.
func (b *batchState) read() error {
	s := b.first()
	if s.takeFallback() {
		return s.atomically(b.readUp, nil)
	}
	return s.roTracked(b.readRO)
}

// apply runs applyBody over b.writes on one shard: one update transaction,
// with onCommit as its commit hook (nil: nothing to log).
func (b *batchState) apply(shard int, onCommit func()) error {
	b.s = b.st.shards[shard]
	return b.s.atomically(b.applyBody, onCommit)
}

// update is the mutating path: every op in one update transaction on the
// first group's shard's thread, inside its shards' gates, which is what makes
// a snapshot, a cut or SetReadOnly's fence wait it out. The engine alone
// makes it atomic and orders it against everything else. On a logged store
// its commit emits its records, one per shard it wrote (logWrites, the
// engine's commit hook), before its locks are released, so that log order is
// commit order per key (see repl.go, "Ordering"). The deferred exit fires
// before Batch waits on the records' durability handles: the batch parks on
// its group fsyncs with nothing held, as a single-key write does.
func (b *batchState) update() error {
	st := b.st
	b.enterGates()
	defer b.exitGates()
	if st.ro.Load() {
		return ErrNotPrimary // fenced while waiting for the gates; see SetReadOnly
	}
	var onCommit func()
	if st.logged() {
		onCommit = b.logWrites
	}
	return b.first().atomically(b.updateBody, onCommit)
}

// Batch executes ops atomically across shards: one STM transaction, whatever
// shards the keys fall in. The store runs one engine, whose clock orders
// every shard's transactions, so a batch needs no protocol of its own to be
// atomic; ops see the writes of earlier ops of the batch through the
// transaction's own write log.
//
// A batch that only reads (every op a get) is a multi-key read and runs as
// MGet does. A mutating batch locks nothing per key — single-key traffic and
// other batches over its keys are ordered against it by the engine,
// conflicts cured by its retry or prevented by the scheduler — and holds its
// shards' gates, so a snapshot or a fence never sees it half done. With a
// log attached (replication ring or WAL) its commit emits its records, one
// per shard, which keeps log order equal to commit order. A validation error
// (a cas mismatch, an add over a non-numeric value, an out-of-range kind)
// aborts the transaction, and nothing of the batch is written. Admission does not shed a batch here:
// a batch is shed at the serving edge, which asks ShedLowPriority once,
// before it decodes the request.
//
// The grouping lives in a pooled batchState, so a call allocates only what
// it hands away: the result slice, one value cell per write (the cell
// becomes the stored value), the decimal string of each add, and with a log
// attached the records it emits.
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
	b := st.batch()
	defer b.release()
	for i := range ops {
		b.keys = append(b.keys, ops[i].Key)
	}
	b.ops = ops
	b.group()
	results := make([]OpResult, len(ops))
	b.results = results

	var err error
	if mutates {
		err = b.update()
	} else {
		err = b.read()
	}
	if errors.Is(err, ErrCASMismatch) {
		// Nothing was written: the transaction rolled back. Only the
		// failing op's result is kept: reporting, say, an add's
		// would-have-been counter value would only invite misreading.
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
