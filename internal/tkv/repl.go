package tkv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// Replication support. A Store opened with Config.ReplRing > 0 carries a
// ReplLog: per-shard bounded rings of committed write sets, populated on
// the write paths and consumed by the wire-level shipper
// (internal/tkvwire) streaming them to follower stores, whose appliers
// feed them back in through ReplApply.
//
// # Ordering
//
// The ring must present records in commit order per key, or a follower
// replaying them diverges. The store gets that order from the stripes it
// already holds: with a log attached (this one or the WAL, st.logged())
// every write path takes its keys' stripes in EXCLUSIVE mode — that is one
// branch in Store.write, the only single-key write path, and one in Batch,
// where a single-shard batch takes the two-phase plan/apply instead of the
// shared fast path — and the record is enqueued after the STM commit but
// before the stripes are released. Two writes to the same key always
// contend on its stripe, so their records enqueue in their commit order;
// writes to different keys may interleave in the ring, but their records
// carry resulting state (values and tombstones, not operations), so any
// interleaving of commuting records replays to the same store.
//
// # Sequence numbers and resync
//
// Each shard's records carry a monotonic sequence number starting at 1,
// assigned at enqueue. The ring retains the last Config.ReplRing records;
// a follower asking for an evicted sequence gets ok=false from ReadFrom
// and the shipper falls back to a whole-shard snapshot cut
// (ReplShardCut). StreamID identifies this log instance, so a follower
// reconnecting to a restarted (empty) primary is detected by streamID
// mismatch and fully resynced rather than silently left with stale data.

// ErrNotPrimary is returned by write operations on a read-only store (a
// follower replica). The HTTP layer maps it to 421 Misdirected Request,
// the wire protocol to StatusNotPrimary: the client should redirect
// writes to the primary.
var ErrNotPrimary = errors.New("tkv: not primary (read-only replica)")

// WriteRec is one written key of a committed write set: a stored value
// or, when Del is set, a tombstone. It is the store-side shape of
// tkvlog.Entry.
type WriteRec = tkvlog.Entry

// ReplRec is one committed write set in a shard's ring.
type ReplRec struct {
	Seq     uint64
	Entries []tkvlog.Entry
}

// ring is one shard's bounded record window: the last len(slots) records,
// addressed by seq % len(slots). next is the next sequence to assign;
// head is next-1, tail max(1, next-len(slots)).
type ring struct {
	mu    sync.Mutex
	slots []ReplRec
	next  uint64
}

// ReplLog is the store's replication state: per-shard record rings plus
// the watermark counters both roles report through Stats.
type ReplLog struct {
	streamID uint64
	rings    []ring
	// notify is the shipper wake-up: one token, coalesced, sent
	// non-blocking on every enqueue.
	notify chan struct{}

	// followers counts attached shippers (primary side).
	followers atomic.Int64
	// shipped is, per shard, the highest sequence confirmed written to
	// the slowest follower's stream (primary side).
	shipped []atomic.Uint64
	// applied is, per shard, the highest sequence replayed through
	// ReplApply (follower side).
	applied []atomic.Uint64
	// remote is, per shard, the primary's head as last heard in a stream
	// metadata frame (follower side); remote - applied is the lag.
	remote []atomic.Uint64

	overflows   atomic.Uint64
	resyncs     atomic.Uint64
	appliedRecs atomic.Uint64
}

// newReplLog builds the log for n shards with per-shard ring capacity cap.
func newReplLog(n, cap int) *ReplLog {
	if cap < 1 {
		cap = 1
	}
	l := &ReplLog{
		rings:   make([]ring, n),
		notify:  make(chan struct{}, 1),
		shipped: make([]atomic.Uint64, n),
		applied: make([]atomic.Uint64, n),
		remote:  make([]atomic.Uint64, n),
	}
	for i := range l.rings {
		l.rings[i].slots = make([]ReplRec, cap)
		l.rings[i].next = 1
	}
	for l.streamID == 0 {
		l.streamID = rand.Uint64()
	}
	return l
}

// StreamID identifies this log instance; it changes on every process
// start, which is how followers detect a restarted (empty) primary.
func (l *ReplLog) StreamID() uint64 { return l.streamID }

// Shards returns the shard count the log was built for.
func (l *ReplLog) Shards() int { return len(l.rings) }

// Notify returns the enqueue wake-up channel (one token, coalesced).
func (l *ReplLog) Notify() <-chan struct{} { return l.notify }

// AddFollower / RemoveFollower bracket one attached shipper.
func (l *ReplLog) AddFollower()    { l.followers.Add(1) }
func (l *ReplLog) RemoveFollower() { l.followers.Add(-1) }

// Followers returns the attached shipper count.
func (l *ReplLog) Followers() int { return int(l.followers.Load()) }

// NoteShipped records that seq on shard has been written to a follower
// stream (monotonic per shard).
func (l *ReplLog) NoteShipped(shard int, seq uint64) {
	for {
		cur := l.shipped[shard].Load()
		if seq <= cur || l.shipped[shard].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// NoteResync counts one snapshot resync (ring overrun or stream-identity
// change).
func (l *ReplLog) NoteResync() { l.resyncs.Add(1) }

// NoteRemoteHead records the primary's head for shard as heard in stream
// metadata (follower side).
func (l *ReplLog) NoteRemoteHead(shard int, head uint64) {
	l.remote[shard].Store(head)
}

// Applied returns the follower-side applied watermark for shard.
func (l *ReplLog) Applied(shard int) uint64 { return l.applied[shard].Load() }

// Head returns the highest sequence enqueued on shard (0 when empty).
func (l *ReplLog) Head(shard int) uint64 {
	r := &l.rings[shard]
	r.mu.Lock()
	h := r.next - 1
	r.mu.Unlock()
	return h
}

// enqueue assigns the next sequence on shard, stores the record, and
// returns the sequence (the WAL appends the same record under it). The
// caller must hold the stripes of every key in entries in exclusive mode
// (that is what makes ring order commit order; see the file comment).
// Entries must not be mutated after the call — the ring and its readers
// alias the slice.
func (l *ReplLog) enqueue(shard int, entries []tkvlog.Entry) uint64 {
	r := &l.rings[shard]
	r.mu.Lock()
	seq := r.next
	r.next++
	n := uint64(len(r.slots))
	if seq > n {
		// Evicting seq-n. If a follower is attached and hasn't shipped
		// it, that history is gone: the follower will need a snapshot
		// resync, which the overflow counter makes visible.
		if evict := seq - n; l.followers.Load() > 0 && evict > l.shipped[shard].Load() {
			l.overflows.Add(1)
		}
	}
	r.slots[seq%n] = ReplRec{Seq: seq, Entries: entries}
	r.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return seq
}

// enqueueAt stores a record under an externally assigned sequence
// (follower side: ReplApply preserves the primary's numbering, keeping
// the follower's own ring aligned for a later promotion).
func (l *ReplLog) enqueueAt(shard int, seq uint64, entries []tkvlog.Entry) {
	r := &l.rings[shard]
	r.mu.Lock()
	r.slots[seq%uint64(len(r.slots))] = ReplRec{Seq: seq, Entries: entries}
	r.next = seq + 1
	r.mu.Unlock()
}

// resetAt empties the ring's window and restarts numbering after seq
// (follower side, after a snapshot resync replaced the shard's contents).
func (l *ReplLog) resetAt(shard int, seq uint64) {
	r := &l.rings[shard]
	r.mu.Lock()
	for i := range r.slots {
		r.slots[i] = ReplRec{}
	}
	r.next = seq + 1
	r.mu.Unlock()
}

// ReadFrom copies up to max records of shard starting at sequence from
// (0 is treated as 1) into dst and returns the extended slice. ok=false
// means from has been evicted — the caller must fall back to a snapshot
// resync. The returned entry slices alias the ring's records; they are
// never mutated after enqueue, so concurrent readers are safe.
func (l *ReplLog) ReadFrom(shard int, from uint64, max int, dst []ReplRec) ([]ReplRec, bool) {
	if from == 0 {
		from = 1
	}
	r := &l.rings[shard]
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.slots))
	tail := uint64(1)
	if r.next > n {
		tail = r.next - n
	}
	if from < tail {
		return dst, false
	}
	for seq := from; seq < r.next && len(dst) < max; seq++ {
		dst = append(dst, r.slots[seq%n])
	}
	return dst, true
}

// Repl returns the store's replication log, nil when the store was opened
// without one (Config.ReplRing == 0).
func (st *Store) Repl() *ReplLog { return st.repl }

// ReadOnly reports whether the store rejects external writes (follower
// role).
func (st *Store) ReadOnly() bool { return st.ro.Load() }

// SetReadOnly flips the store's write gating: true fences every external
// write path (Store.write, a mutating Batch) with ErrNotPrimary, on a store
// with or without a log (ReplApply is exempt — it is how a follower's data
// arrives). Promotion clears it.
//
// SetReadOnly(true) is a barrier: when it returns, every write that passed
// the gate has committed and, on a logged store, emitted its record, so a
// head read afterwards (what DrainRepl ships up to before it fences the
// stream) is final. The write paths test the flag again once they hold their
// stripes, and this takes every stripe of every shard after setting it —
// exclusively, so the shared holders of an unlogged store are waited out
// too. It must not be called with a stripe held.
func (st *Store) SetReadOnly(v bool) {
	st.ro.Store(v)
	if !v {
		return
	}
	b := st.batch()
	defer b.release()
	for i := range st.shards {
		b.lockShard(i, true)
		b.unlock(true)
	}
}

// emitPlan emits one shard's applied batch plan as a record. The caller
// (Batch phase two) still holds the batch's exclusive stripes; the
// returned durability handle is waited on after they release.
func (st *Store) emitPlan(shard int, plan []plannedWrite) *tkvwal.Commit {
	entries := make([]tkvlog.Entry, len(plan))
	for i, w := range plan {
		if w.val == nil {
			entries[i] = tkvlog.Entry{Key: w.key, Del: true}
		} else {
			entries[i] = tkvlog.Entry{Key: w.key, Val: *w.val}
		}
	}
	return st.logCommit(shard, entries)
}

// ReplShardCut returns a consistent snapshot of one shard together with
// the shard's sequence watermark: every record with Seq <= the returned
// seq is reflected in the pairs, none after. It holds all of the shard's
// stripes in shared mode for the duration — writers (exclusive under a
// ReplLog) are paused on this shard, so the head cannot advance under the
// cut — and is the shipper's fallback when a follower's cursor has been
// evicted from the ring.
func (st *Store) ReplShardCut(shard int) (pairs []tkvlog.Entry, seq uint64, err error) {
	if shard < 0 || shard >= len(st.shards) || st.repl == nil {
		return nil, 0, fmt.Errorf("tkv: bad repl cut shard %d", shard)
	}
	return st.cutShard(shard)
}

// ReplApply replays one replicated record on a follower: the entries are
// applied in order as one update transaction under the keys' exclusive
// stripes, the record is mirrored into the follower's own ring under the
// primary's sequence number, and the applied watermark advances. It
// bypasses the read-only gate — this is how a follower's data arrives.
func (st *Store) ReplApply(rec *tkvlog.Record) error {
	if st.repl == nil {
		return errors.New("tkv: ReplApply without a replication log")
	}
	shard := int(rec.Shard)
	if shard < 0 || shard >= len(st.shards) {
		return fmt.Errorf("tkv: repl record for shard %d of %d", shard, len(st.shards))
	}
	b := st.batch()
	defer b.release()
	for _, e := range rec.Entries {
		if st.ShardOf(e.Key) != shard {
			return fmt.Errorf("tkv: repl record key %d maps to shard %d, record says %d (shard counts differ?)",
				e.Key, st.ShardOf(e.Key), shard)
		}
		b.keys = append(b.keys, e.Key)
	}
	b.plan()
	b.lock(true)
	defer b.unlock(true)
	// The follower's ring and WAL keep the entries; rec's own slice is the
	// stream decoder's to reuse.
	entries := append([]tkvlog.Entry(nil), rec.Entries...)
	var err error
	if len(entries) > 0 {
		// The record is a finished plan for its one shard group: phase two
		// applies it.
		for _, e := range entries {
			w := plannedWrite{key: e.Key}
			if !e.Del {
				cell := e.Val
				w.val = &cell
			}
			b.writes = append(b.writes, w)
		}
		s := b.enter(0)
		b.g.whi = len(b.writes)
		err = s.atomically(b.applyBody)
	}
	if err != nil {
		return fmt.Errorf("tkv: repl apply shard %d seq %d: %w", shard, rec.Seq, err)
	}
	if st.wal != nil {
		// Persist under the primary's sequence number and wait before the
		// applied watermark moves: a follower must never report a record
		// applied that its own log could lose.
		st.walMu[shard].Lock()
		c := st.wal.Append(shard, rec.Seq, entries)
		st.walMu[shard].Unlock()
		if werr := c.Wait(); werr != nil {
			return fmt.Errorf("tkv: repl apply shard %d seq %d: wal: %w", shard, rec.Seq, werr)
		}
	}
	st.repl.enqueueAt(shard, rec.Seq, entries)
	st.repl.applied[shard].Store(rec.Seq)
	st.repl.appliedRecs.Add(1)
	return nil
}

// ReplRestoreShard replaces one shard's contents with a snapshot cut
// (follower side, after the primary fell back to ReplShardCut): keys
// absent from the cut are deleted, every pair of the cut is written, all
// as one update transaction under every stripe of the shard, and the
// shard's ring and watermarks restart after seq.
//
// With a WAL the shard's lane is then checkpointed, and that cut takes
// each shard's stripes itself — so the checkpoint runs after this
// shard's stripes are released. That ordering is safe because the
// follower applier calling this is the store's only writer (the follower
// bounces client writes), so nothing can append into the numbering gap
// before the checkpoint lands; a crash inside the window just recovers
// the pre-restore state and resyncs again.
func (st *Store) ReplRestoreShard(shard int, pairs []tkvlog.Entry, seq uint64) error {
	if st.repl == nil {
		return errors.New("tkv: ReplRestoreShard without a replication log")
	}
	if shard < 0 || shard >= len(st.shards) {
		return fmt.Errorf("tkv: repl restore for shard %d of %d", shard, len(st.shards))
	}
	s := st.shards[shard]
	err := func() error {
		b := st.batch()
		defer b.release()
		b.lockShard(shard, true)
		defer b.unlock(true)
		incoming := make(map[uint64]struct{}, len(pairs))
		for _, p := range pairs {
			incoming[p.Key] = struct{}{}
		}
		// Collect the keys to delete outside the update transaction (ForEach
		// during a mutating iteration would observe its own writes).
		var stale []uint64
		err := s.atomicallyRO(func(tx *stm.ROTx) error {
			stale = stale[:0]
			return s.kv.ForEachRO(tx, func(k uint64, _ string) bool {
				if _, ok := incoming[k]; !ok {
					stale = append(stale, k)
				}
				return true
			})
		})
		if err != nil {
			return err
		}
		err = s.atomically(func(tx stm.Tx) error {
			for _, k := range stale {
				if _, err := s.kv.Delete(tx, k); err != nil {
					return err
				}
			}
			for _, p := range pairs {
				if _, err := s.kv.Put(tx, p.Key, p.Val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("tkv: repl restore shard %d: %w", shard, err)
		}
		st.repl.resetAt(shard, seq)
		st.repl.applied[shard].Store(seq)
		return nil
	}()
	if err != nil {
		return err
	}
	if st.wal != nil {
		// The shard's old log no longer describes its contents: checkpoint
		// its lane, forced (a restore appends nothing). The numbering was
		// reset above, so the cut for this shard captures exactly the
		// restored snapshot at seq.
		if err := st.wal.Checkpoint(st.wal.LaneOf(shard), st.cutShard, true); err != nil {
			return fmt.Errorf("tkv: repl restore shard %d: wal: %w", shard, err)
		}
	}
	st.repl.NoteResync()
	return nil
}

// ReplShardStats is one shard's replication watermarks.
type ReplShardStats struct {
	Shard   int    `json:"shard"`
	Head    uint64 `json:"head"`
	Shipped uint64 `json:"shipped,omitempty"`
	Applied uint64 `json:"applied,omitempty"`
	Remote  uint64 `json:"remote,omitempty"`
	Lag     uint64 `json:"lag"`
}

// ReplStats is the store's replication status as reported in Stats. On a
// primary, Lag is head minus shipped summed over shards (0 without
// followers); on a follower it is the primary's last-heard heads minus
// the applied watermarks.
type ReplStats struct {
	Role        string           `json:"role"`
	StreamID    uint64           `json:"streamID"`
	Followers   int              `json:"followers"`
	Lag         uint64           `json:"lag"`
	Overflows   uint64           `json:"overflows"`
	Resyncs     uint64           `json:"resyncs"`
	AppliedRecs uint64           `json:"appliedRecs"`
	Shards      []ReplShardStats `json:"shards"`
}

// replStats assembles the replication block of Stats.
func (st *Store) replStats() *ReplStats {
	l := st.repl
	if l == nil {
		return nil
	}
	out := &ReplStats{
		Role:        "primary",
		StreamID:    l.streamID,
		Followers:   l.Followers(),
		Overflows:   l.overflows.Load(),
		Resyncs:     l.resyncs.Load(),
		AppliedRecs: l.appliedRecs.Load(),
		Shards:      make([]ReplShardStats, len(l.rings)),
	}
	follower := st.ro.Load()
	if follower {
		out.Role = "follower"
	}
	for i := range l.rings {
		ss := ReplShardStats{
			Shard:   i,
			Head:    l.Head(i),
			Shipped: l.shipped[i].Load(),
			Applied: l.applied[i].Load(),
			Remote:  l.remote[i].Load(),
		}
		if follower {
			if ss.Remote > ss.Applied {
				ss.Lag = ss.Remote - ss.Applied
			}
		} else if out.Followers > 0 && ss.Head > ss.Shipped {
			ss.Lag = ss.Head - ss.Shipped
		}
		out.Lag += ss.Lag
		out.Shards[i] = ss
	}
	return out
}
