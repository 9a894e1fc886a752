package tkv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// Replication support. A Store opened with Config.ReplRing > 0 carries a
// ReplLog: the replication face of the store's per-shard logs (wal.go), whose
// windows keep the last ReplRing committed write sets for the wire-level
// shipper (internal/tkvwire) to stream to follower stores, whose appliers
// feed them back in through ReplApply.
//
// # Ordering
//
// A shard's records must be in commit order per key, or a follower
// replaying them diverges. The store gets that order from the engine: on a
// logged store (a ring, a WAL, or both: st.logged()) every write path
// appends its record from inside its commit — the engine's commit hook,
// which runs after the transaction's read set has validated and before its
// write locks are released (opSlot.logWrite for Store.write, the only
// single-key write path; batchState.logWrites for Batch and ReplApply). Two
// writes to the same key always meet on a cell: every write of a key reads
// or overwrites its value cell (exec says so for every op kind: a delete
// reads it, which the map's unlink alone would not, as it writes only the
// links), and one that creates the key writes the link that will hold it. The later writer therefore either waits for
// the earlier one's locks, which are released after its append, or fails
// its own validation and retries; so their records append in their commit
// order. Writes to different keys may interleave in the log, even against
// their commit timestamps, but their records carry resulting state (values
// and tombstones, not operations), so any interleaving of commuting records
// replays to the same store. An observer that needs the head to match the
// contents exactly (a cut, SetReadOnly) freezes the shard's gate, which
// every logged write holds while it runs.
//
// # Sequence numbers and resync
//
// Each shard has one sequence, and logCommit is the only thing that
// advances it: the records a shard's window holds, the ones its WAL
// persists and the head the shipper, the cuts and Stats report are one
// numbering, so there is nothing to keep aligned. A primary numbers its
// writes head+1; a follower appends each record under its primary's
// number, so after a promotion it continues the primary's numbering. The
// window serves floor..head; a follower asking for anything below the floor
// — evicted, or older than this process's log (a WAL reopen, a restore
// from a cut: logRestart) — gets ok=false from ReadFrom, and the shipper
// falls back to a whole-shard snapshot cut (ReplShardCut). StreamID
// identifies this log instance, so a follower reconnecting to a restarted
// primary is detected by streamID mismatch and resynced rather than
// silently left with stale data.

// ErrNotPrimary is returned by write operations on a read-only store (a
// follower replica). The wire protocol maps it to StatusNotPrimary: the
// client should redirect writes to the primary.
var ErrNotPrimary = errors.New("tkv: not primary (read-only replica)")

// ReplRec is one committed write set in a shard's window.
type ReplRec struct {
	Seq     uint64
	Entries []tkvlog.Entry
}

// ReplLog is the store's replication face: the shipper's view of the
// shards' logs (their heads and windows) plus the watermark counters both
// roles report through Stats.
type ReplLog struct {
	streamID uint64
	logs     []shardLog // the store's: ReplLog reads them, logCommit writes them
	// notify is the shipper wake-up: one token, coalesced, sent
	// non-blocking on every append.
	notify chan struct{}

	// followers counts attached shippers (primary side).
	followers atomic.Int64
	// shipped is, per shard, the highest sequence confirmed written to
	// the slowest follower's stream (primary side).
	shipped []atomic.Uint64
	// applied is, per shard, the sequence the log last restarted at or
	// the highest one since replayed through ReplApply and durable in this
	// store's own log (follower side). It trails the head by the record a
	// ReplApply has appended and is still waiting on, which is why it is a
	// counter of its own.
	applied []atomic.Uint64
	// remote is, per shard, the primary's head as last heard in a stream
	// metadata frame (follower side); remote - applied is the lag.
	remote []atomic.Uint64

	overflows   atomic.Uint64
	resyncs     atomic.Uint64
	appliedRecs atomic.Uint64
}

// newReplLog builds the replication face of the store's shard logs.
func newReplLog(logs []shardLog) *ReplLog {
	n := len(logs)
	l := &ReplLog{
		logs:    logs,
		notify:  make(chan struct{}, 1),
		shipped: make([]atomic.Uint64, n),
		applied: make([]atomic.Uint64, n),
		remote:  make([]atomic.Uint64, n),
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
func (l *ReplLog) Shards() int { return len(l.logs) }

// Notify returns the append wake-up channel (one token, coalesced).
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

// Head returns the highest sequence appended on shard (0 when empty).
func (l *ReplLog) Head(shard int) uint64 { return l.logs[shard].last() }

// ReadFrom copies up to max records of shard starting at sequence from
// (0 is treated as 1) into dst and returns the extended slice; record i
// has sequence from+i. ok=false means from is below the window's floor —
// evicted, or from before the shard's log last restarted — and the caller
// must fall back to a snapshot resync. The returned entry slices alias the
// window's records; they are never mutated after the append, so concurrent
// readers are safe.
func (l *ReplLog) ReadFrom(shard int, from uint64, max int, dst []ReplRec) ([]ReplRec, bool) {
	if from == 0 {
		from = 1
	}
	s := &l.logs[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.floor {
		return dst, false
	}
	n := uint64(len(s.slots))
	for seq := from; seq <= s.head && len(dst) < max; seq++ {
		dst = append(dst, s.slots[seq%n])
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
// On a logged store, where it is used (a follower, and a primary's shutdown
// fence), SetReadOnly(true) is a barrier: when it returns, every write that
// passed the flag has committed and emitted its record, so a head read
// afterwards (what DrainRepl ships up to before it fences the stream) is
// final. The write paths test the flag again inside their shard's gate (a
// batch inside all of its shards'), and after setting it this freezes each
// shard's gate in turn, which waits out every write inside. On an unlogged
// store a single-key write takes no gate and tests the flag once, so the flag
// bounces every write that checks it afterwards, and the batches are still
// waited out at their gates. It must not be called with a gate held.
func (st *Store) SetReadOnly(v bool) {
	st.ro.Store(v)
	if !v {
		return
	}
	for _, s := range st.shards {
		s.gate.freeze()
		s.gate.unfreeze()
	}
}

// ReplShardCut returns a consistent snapshot of one shard together with
// the shard's sequence watermark: every record with Seq <= the returned
// seq is reflected in the pairs, none after. It freezes the shard's gate for
// the duration (cutShard) — the shard's writers are paused, so the head
// cannot advance under the cut — and is the shipper's fallback when a
// follower's cursor is below the shard's window.
func (st *Store) ReplShardCut(shard int) (pairs []tkvlog.Entry, seq uint64, err error) {
	if shard < 0 || shard >= len(st.shards) || st.repl == nil {
		return nil, 0, fmt.Errorf("tkv: bad repl cut shard %d", shard)
	}
	return st.cutShard(shard)
}

// ReplApply replays one replicated record on a follower: inside the shard's
// gate, the entries are applied in order as one update transaction whose
// commit appends the record to the follower's own log under the primary's
// sequence number (logWrites, as a batch emits its records), and once that
// append is durable the applied watermark advances. A record that wrote
// nothing here is appended directly. It bypasses the
// read-only flag — this is how a follower's data arrives.
func (st *Store) ReplApply(rec *tkvlog.Record) error {
	if st.repl == nil {
		return errors.New("tkv: ReplApply without a replication log")
	}
	shard, err := st.recordShard("repl", rec)
	if err != nil {
		return err
	}
	b := st.batch()
	defer b.release()
	// rec's own slice is the stream decoder's to reuse: the transaction
	// applies a copy, and the record logWrites emits is a copy of that.
	b.writes = append(b.writes, rec.Entries...)
	b.groups = append(b.groups[:0], shardGroup{shard: shard, whi: len(b.writes)})
	b.seq = rec.Seq
	g := &st.shards[shard].gate
	g.enter()
	defer g.exit()
	if err := b.apply(shard, b.logWrites); err != nil {
		return fmt.Errorf("tkv: repl apply shard %d seq %d: %w", shard, rec.Seq, err)
	}
	if len(b.commits) == 0 {
		// Nothing written (an empty record, or tombstones of keys this
		// store lacks), so nothing to order: the record only keeps the
		// follower's numbering dense.
		b.commits = append(b.commits, st.logCommit(shard, rec.Seq, append([]tkvlog.Entry(nil), rec.Entries...)))
	}
	// Wait before the applied watermark moves (a nil Commit without a WAL
	// returns at once): a follower must never report a record applied that
	// its own log could lose, and what it reports is what it resubscribes
	// from.
	if werr := b.commits[0].Wait(); werr != nil {
		return fmt.Errorf("tkv: repl apply shard %d seq %d: wal: %w", shard, rec.Seq, werr)
	}
	st.repl.applied[shard].Store(rec.Seq)
	st.repl.appliedRecs.Add(1)
	return nil
}

// ReplRestoreShard replaces one shard's contents with a snapshot cut
// (follower side, after the primary fell back to ReplShardCut): keys
// absent from the cut are deleted, every pair of the cut is written, all
// as one update transaction (applyBody, as for a replicated record) inside
// the shard's gate, and the shard's log restarts at seq (logRestart).
//
// With a WAL the log is then checkpointed, and that cut freezes each
// shard's gate itself — so the checkpoint runs after this call has left the
// shard's gate. That ordering is safe because the follower applier calling
// this is the store's only writer (the follower bounces client writes), so
// nothing can append into the numbering gap before the checkpoint lands; a
// crash inside the window just recovers the pre-restore state and resyncs
// again.
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
		s.gate.enter()
		defer s.gate.exit()
		incoming := make(map[uint64]struct{}, len(pairs))
		for _, p := range pairs {
			incoming[p.Key] = struct{}{}
		}
		// Tombstone the keys absent from the cut, collected outside the
		// update transaction (ForEach during a mutating iteration would
		// observe its own writes); the cut's pairs follow them.
		err := s.atomicallyRO(func(tx *stm.ROTx) error {
			b.writes = b.writes[:0]
			return s.kv.ForEachRO(tx, func(k uint64, _ string) bool {
				if _, ok := incoming[k]; !ok {
					b.writes = append(b.writes, tkvlog.Entry{Key: k, Del: true})
				}
				return true
			})
		})
		if err != nil {
			return err
		}
		b.writes = append(b.writes, pairs...)
		if err := b.apply(shard, nil); err != nil {
			return fmt.Errorf("tkv: repl restore shard %d: %w", shard, err)
		}
		st.logRestart(shard, seq)
		return nil
	}()
	if err != nil {
		return err
	}
	if st.wal != nil {
		// The shard's old log no longer describes its contents: checkpoint,
		// forced (a restore appends nothing). The head was
		// restarted above, so the cut for this shard captures exactly the
		// restored snapshot at seq, and the WAL's own watermark takes that
		// number even when it is lower than what the WAL had appended.
		if err := st.wal.Checkpoint(st.cutShard, true); err != nil {
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
		Shards:      make([]ReplShardStats, len(l.logs)),
	}
	follower := st.ro.Load()
	if follower {
		out.Role = "follower"
	}
	for i := range l.logs {
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
