package tkv

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// The store's log. A store opened with a replication ring (Config.ReplRing),
// a write-ahead log (Config.WAL, internal/tkvwal: one lane owning every
// shard) or both is logged, and then every shard has one record sequence,
// a shardLog: one mutex, one head. Store.write (every single-key write), a
// mutating Batch (one record per shard it wrote) and the follower's
// ReplApply hand their committed write set to logCommit while still holding
// the keys' exclusive stripes; logCommit numbers the record and, under that
// one mutex, puts it in the shard's in-memory window (with a ring) and in the
// WAL's buffer (with a WAL). Two writes to one key are ordered by the stripe before either reaches
// the log — the conflict is prevented, not detected and repaired — so one
// counter under one lock is all the ordering a record needs, and the window a
// follower reads, the file recovery replays and the head the shipper and Stats
// report can only agree. logRestart re-bases a shard's sequence where the
// store's contents came from somewhere else: the recovered log on Open, a
// snapshot cut on a follower (ReplRestoreShard).
//
// The ack protocol is two-step: the write path appends under the stripe
// (ordering), releases the stripe, and only then parks on the returned
// Commit (durability). Parking after release keeps fsync latency out of
// every stripe hold time: a second writer to the same key proceeds to
// commit and append while the first is still waiting for the group
// fsync, and both acks ride the same or consecutive fsyncs in order.

// shardLog is one shard's record sequence. head is the last sequence
// appended; with a ring, slots holds the records floor..head, addressed by
// seq % len(slots). floor is the lowest sequence the window may serve: it
// rises as the window evicts, and a restart sets it past head, so a reader
// asking for a record this process never held gets ok=false and resyncs from
// a cut.
type shardLog struct {
	mu    sync.Mutex
	head  uint64
	floor uint64
	slots []ReplRec // nil without a ring
}

// logged reports whether the store takes stripes at all: writes
// exclusively, around their commit and the append of their write sets, and
// reads shared, so that none returns a write whose record is not yet in the
// log. It is the whole difference a log makes to the data paths: Get,
// Store.write, Batch and MGet branch on it.
func (st *Store) logged() bool { return st.logs != nil }

// logCommit is the one append: it numbers one committed write set on shard —
// head+1 when seq is 0 (a write on this store), seq itself otherwise (a
// record a follower replays under its primary's number) — and, under the
// shard's log mutex, stores it in the window and hands it to the WAL, so the
// WAL buffer holds records in sequence order. It returns the WAL durability
// handle (nil without a WAL; Wait on a nil Commit returns at once). It is the
// only function that advances a head. The caller must hold the entries' keys'
// stripes in exclusive mode, and must not mutate entries afterwards (the
// window and its readers alias the slice).
func (st *Store) logCommit(shard int, seq uint64, entries []tkvlog.Entry) *tkvwal.Commit {
	l := &st.logs[shard]
	l.mu.Lock()
	if seq == 0 {
		seq = l.head + 1
	} else if seq != l.head+1 {
		l.floor = seq // not contiguous: nothing the window holds precedes it
	}
	l.head = seq
	if n := uint64(len(l.slots)); n > 0 {
		if seq >= l.floor+n {
			// Evicting seq-n. If a follower is attached and hasn't shipped
			// it, that history is gone: the follower will need a snapshot
			// resync, which the overflow counter makes visible.
			l.floor = seq - n + 1
			if r := st.repl; r.followers.Load() > 0 && seq-n > r.shipped[shard].Load() {
				r.overflows.Add(1)
			}
		}
		l.slots[seq%n] = ReplRec{Seq: seq, Entries: entries}
	}
	var c *tkvwal.Commit
	if st.wal != nil {
		c = st.wal.Append(shard, seq, entries)
	}
	l.mu.Unlock()
	if st.repl != nil {
		select {
		case st.repl.notify <- struct{}{}:
		default:
		}
	}
	return c
}

// logRestart re-bases shard's sequence at seq: the head becomes seq, the
// window is dropped and its floor set to seq+1 (whatever a reader asks for at
// or below seq is a cut now), and a follower's applied watermark follows.
// openWAL calls it at the recovered watermark, ReplRestoreShard at the cut's.
func (st *Store) logRestart(shard int, seq uint64) {
	l := &st.logs[shard]
	l.mu.Lock()
	l.head, l.floor = seq, seq+1
	clear(l.slots)
	l.mu.Unlock()
	if st.repl != nil {
		st.repl.applied[shard].Store(seq)
	}
}

// last returns the shard's head: the highest sequence appended (0 when
// none).
func (l *shardLog) last() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// walRecoverApply replays one recovered record into the store. It runs
// during Open, before the store is reachable, so it needs no stripes:
// each record is one update transaction on its shard (applyBody, as for a
// replicated record), in the per-shard sequence order tkvwal.Open
// guarantees.
func (st *Store) walRecoverApply(rec *tkvlog.Record) error {
	shard := int(rec.Shard)
	if shard < 0 || shard >= len(st.shards) {
		return fmt.Errorf("tkv: wal record for shard %d of %d", shard, len(st.shards))
	}
	b := st.batch()
	defer b.release()
	b.writes = append(b.writes, rec.Entries...)
	return b.apply(shard)
}

// openWAL recovers the log directory into the freshly built (empty)
// shards and wires the log in: every shard's sequence restarts at its
// recovered watermark, and the periodic checkpoint loop starts if
// configured.
func (st *Store) openWAL(cfg Config) error {
	wopts := *cfg.WAL
	wopts.Shards = len(st.shards)
	w, err := tkvwal.Open(wopts, st.walRecoverApply)
	if err != nil {
		return err
	}
	st.wal = w
	for i := range st.shards {
		st.logRestart(i, w.LastSeq(i))
	}
	if wopts.CheckpointEvery > 0 {
		st.walStop = make(chan struct{})
		st.walDone = make(chan struct{})
		go st.walCheckpointLoop(wopts.CheckpointEvery)
	}
	return nil
}

// walShutdown stops the checkpoint loop and closes the log (flushing
// pending groups). Idempotent, like Close.
func (st *Store) walShutdown() {
	if st.wal == nil {
		return
	}
	st.walOnce.Do(func() {
		if st.walStop != nil {
			close(st.walStop)
			<-st.walDone
		}
		st.wal.Close()
	})
}

// walCheckpointLoop drives periodic checkpoints until Close or a log
// failure (after which checkpointing could only mask the fence).
func (st *Store) walCheckpointLoop(every time.Duration) {
	defer close(st.walDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-st.walStop:
			return
		case <-st.wal.Failed():
			return
		case <-t.C:
			st.CheckpointAll()
		}
	}
}

// cutShard returns a consistent snapshot of one shard together with its
// log head: every record with Seq <= the returned seq is reflected in
// the pairs, none after. It holds all of the shard's stripes in shared
// mode — writers on a logged store hold theirs exclusively, so they are
// paused on this shard and the head cannot advance under the cut. The
// replication shipper's snapshot fallback (ReplShardCut) and the WAL
// checkpoint both cut here.
func (st *Store) cutShard(shard int) (pairs []tkvlog.Entry, seq uint64, err error) {
	b := st.batch()
	defer b.release()
	b.lockShard(shard, false)
	defer b.unlock(false)
	seq = st.logs[shard].last()
	if pairs, err = st.shards[shard].pairs(nil); err != nil {
		return nil, 0, err
	}
	return pairs, seq, nil
}

// CheckpointAll snapshots every shard into the WAL's checkpoint file and
// truncates the log up to it. The WAL cuts the shards one at a time
// through cutShard, so the caller must not hold any stripes.
func (st *Store) CheckpointAll() error {
	if st.wal == nil {
		return errors.New("tkv: CheckpointAll without a WAL")
	}
	return st.wal.Checkpoint(st.cutShard, false)
}

// WAL returns the store's write-ahead log, nil when the store was
// opened without one.
func (st *Store) WAL() *tkvwal.WAL { return st.wal }

// WalFailed returns the log's fail-stop channel: closed once a write or
// fsync error has fenced the log, after which the process should exit
// nonzero (acks can no longer be honored). Nil — never ready — without
// a WAL.
func (st *Store) WalFailed() <-chan struct{} {
	if st.wal == nil {
		return nil
	}
	return st.wal.Failed()
}

// WalErr returns the error that fenced the log, nil while healthy or
// without a WAL.
func (st *Store) WalErr() error {
	if st.wal == nil {
		return nil
	}
	return st.wal.Err()
}
