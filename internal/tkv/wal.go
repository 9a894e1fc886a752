package tkv

import (
	"errors"
	"fmt"
	"time"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// Durability support. A Store opened with Config.WAL carries a
// write-ahead log (internal/tkvwal) — a set of lanes, each owning some of
// the store's shards; the store never asks which layout it was given,
// only which lane a shard is in — fed from the same place the
// replication rings are: Store.write (every single-key write) and the
// batch apply hand their committed write set to logCommit while still
// holding the keys' exclusive stripes, so WAL order is commit order per
// key, exactly as ring order is. The two logs share one
// record format (tkvlog) and one sequence numbering — when both are
// attached, the ring assigns the sequence and the WAL persists it, so a
// follower's applied watermark and the local durable watermark speak the
// same coordinates.
//
// The ack protocol is two-step: the write path appends under the stripe
// (ordering), releases the stripe, and only then parks on the returned
// Commit (durability). Parking after release keeps fsync latency out of
// every stripe hold time: a second writer to the same key proceeds to
// commit and append while the first is still waiting for the group
// fsync, and both acks ride the same or consecutive fsyncs in order.

// logged reports whether write paths must take exclusive stripes and
// emit their write sets (to the replication ring, the WAL, or both). It is
// the whole difference a log makes to a write: Store.write and Batch
// branch on it, nothing else does.
func (st *Store) logged() bool { return st.repl != nil || st.wal != nil }

// logCommit hands one committed write set to the attached logs and
// returns the WAL durability handle (nil when no WAL — Wait on a nil
// Commit returns immediately). The caller must hold the entries' keys'
// stripes in exclusive mode; the per-shard walMu then makes sequence
// assignment and WAL buffer order atomic, so the WAL file replays in
// ring order. Entries must not be mutated after the call (the ring
// aliases the slice).
func (st *Store) logCommit(shard int, entries []tkvlog.Entry) *tkvwal.Commit {
	if st.wal == nil {
		st.repl.enqueue(shard, entries)
		return nil
	}
	st.walMu[shard].Lock()
	var seq uint64
	if st.repl != nil {
		seq = st.repl.enqueue(shard, entries)
	} else {
		st.walSeq[shard]++
		seq = st.walSeq[shard]
	}
	c := st.wal.Append(shard, seq, entries)
	st.walMu[shard].Unlock()
	return c
}

// logHead returns the highest sequence assigned on shard.
func (st *Store) logHead(shard int) uint64 {
	if st.repl != nil {
		return st.repl.Head(shard)
	}
	st.walMu[shard].Lock()
	h := st.walSeq[shard]
	st.walMu[shard].Unlock()
	return h
}

// walRecoverApply replays one recovered record into the store. It runs
// during Open, before the store is reachable, so it needs no stripes:
// each record is one update transaction on its shard, in the per-shard
// sequence order tkvwal.Open guarantees.
func (st *Store) walRecoverApply(rec *tkvlog.Record) error {
	shard := int(rec.Shard)
	if shard < 0 || shard >= len(st.shards) {
		return fmt.Errorf("tkv: wal record for shard %d of %d", shard, len(st.shards))
	}
	s := st.shards[shard]
	return s.atomically(func(tx stm.Tx) error {
		for _, e := range rec.Entries {
			var err error
			if e.Del {
				_, err = s.kv.Delete(tx, e.Key)
			} else {
				_, err = s.kv.Put(tx, e.Key, e.Val)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// openWAL recovers the log directory into the freshly built (empty)
// shards and wires the log in: sequence counters continue from the
// recovered watermarks, the replication ring (when attached) restarts
// its numbering there too, and the periodic checkpoint loop starts if
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
		st.walSeq[i] = w.LastSeq(i)
		if st.repl != nil {
			// The ring numbering must continue where the durable log left
			// off, or a follower attaching after a restart would see
			// sequence 1 carry different data than it already applied.
			st.repl.resetAt(i, st.walSeq[i])
			st.repl.applied[i].Store(st.walSeq[i])
		}
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
	s := st.shards[shard]
	b := st.batch()
	defer b.release()
	b.lockShard(shard, false)
	defer b.unlock(false)
	seq = st.logHead(shard)
	err = s.atomicallyRO(func(tx *stm.ROTx) error {
		pairs = pairs[:0]
		return s.kv.ForEachRO(tx, func(k uint64, v string) bool {
			pairs = append(pairs, tkvlog.Entry{Key: k, Val: v})
			return true
		})
	})
	if err != nil {
		return nil, 0, err
	}
	return pairs, seq, nil
}

// Checkpoint snapshots the log lane that carries shard — every shard of
// the store on a shared log, just this one on a per-shard log — into the
// WAL's checkpoint file and truncates that lane's log up to it. The lane
// cuts its shards one at a time through cutShard, so the caller must not
// hold any stripes.
func (st *Store) Checkpoint(shard int) error {
	if st.wal == nil {
		return errors.New("tkv: Checkpoint without a WAL")
	}
	if shard < 0 || shard >= len(st.shards) {
		return fmt.Errorf("tkv: bad checkpoint shard %d", shard)
	}
	return st.wal.Checkpoint(st.wal.LaneOf(shard), st.cutShard, false)
}

// CheckpointAll checkpoints every lane of the log, and so every shard.
// The first error wins and later lanes are still attempted — their logs
// truncate independently.
func (st *Store) CheckpointAll() error {
	if st.wal == nil {
		return errors.New("tkv: CheckpointAll without a WAL")
	}
	var first error
	for lane := 0; lane < st.wal.Lanes(); lane++ {
		if err := st.wal.Checkpoint(lane, st.cutShard, false); err != nil && first == nil {
			first = err
		}
	}
	return first
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
