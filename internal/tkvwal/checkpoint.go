package tkvwal

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// ckptChunk bounds entries per checkpoint record so one record never
// approaches tkvlog.MaxRecord.
const ckptChunk = 4096

// Checkpoint snapshots the shards of one lane and truncates the lane's
// log. The protocol is ordered so a crash at any point loses nothing:
//
//  1. rotate: flush + fsync the active segment and start a fresh one,
//     so every record in the old segments precedes the cut;
//  2. cut: the caller captures a consistent snapshot of each shard and
//     its head sequence (the store takes the shard's stripes as a
//     reader, which briefly excludes writers — see Store.cutShard — so
//     the caller must not hold any stripes);
//  3. write the snapshots to a tmp file, fsync, rename into place,
//     fsync the directory — the rename is the commit point;
//  4. gc: delete the pre-rotation segments and older checkpoints, all
//     of whose records the checkpoint now covers.
//
// A crash before 3 recovers from the previous checkpoint plus all
// segments; after 3, from the new checkpoint plus the fresh segment
// (records with seq at or below the cut replay as no-ops via the seq
// skip). cut is called once per shard the lane owns, in order, so only
// one shard's snapshot is in memory at a time; the file carries one
// chunked snapshot per shard, every chunk carrying that shard's cut seq.
// A checkpoint never covers less than its lane: one holding some of the
// lane's shards would supersede the others' segments without their data.
//
// A no-op when none of the lane's shards has appended since the last
// checkpoint, unless force is set — a restore changes store state
// without appending (its numbering arrives via the cut seq), so the
// append watermarks cannot see that kind of dirt.
func (w *WAL) Checkpoint(lane int, cut func(shard int) ([]tkvlog.Entry, uint64, error), force bool) error {
	if err := w.Err(); err != nil {
		return err
	}
	l := w.lanes[lane]
	dirty := force
	for _, s := range l.shards {
		s.mu.Lock()
		dirty = dirty || s.appended != s.lastCkptSeq.Load()
		s.mu.Unlock()
	}
	if !dirty {
		return nil
	}
	rot, err := w.rotate(l)
	if err != nil {
		return err
	}
	cutSeqs := make([]uint64, len(l.shards))
	var cutErr error
	err = w.commitFile(laneCkptName(l.idx, rot), func(f File) error {
		var buf []byte
		for i, s := range l.shards {
			entries, seq, err := cut(s.idx)
			if err != nil {
				cutErr = err
				return err
			}
			cutSeqs[i] = seq
			rec := tkvlog.Record{Shard: uint16(s.idx), Seq: seq}
			for off := 0; ; off += ckptChunk {
				end := min(off+ckptChunk, len(entries))
				rec.Entries = entries[off:end]
				buf = rec.Append(buf[:0])
				if _, err := f.Write(buf); err != nil {
					return err
				}
				if end == len(entries) {
					break
				}
			}
		}
		return nil
	})
	if cutErr != nil {
		return cutErr // a cut failure is the store's problem, not a log fault
	}
	if err != nil {
		w.fail(err)
		return err
	}
	w.gc(l, rot)
	for i, s := range l.shards {
		seq := cutSeqs[i]
		s.mu.Lock()
		if seq > s.appended {
			s.appended = seq // a restore cut jumped the numbering forward
		}
		s.mu.Unlock()
		if seq > s.durable.Load() {
			s.durable.Store(seq)
		}
		s.lastCkptSeq.Store(seq)
	}
	w.lastCkptNS.Store(time.Now().UnixNano())
	w.checkpoints.Add(1)
	return nil
}

// commitFile makes a whole file appear atomically: fill writes it under
// a tmp name, then fsync, close, rename into place, fsync the directory
// — the rename is the commit point, and Open discards a tmp file a
// crash left behind. The caller decides what a failure means.
func (w *WAL) commitFile(name string, fill func(File) error) error {
	tmp := w.path(name + ".tmp")
	f, err := w.fs.Create(tmp)
	if err != nil {
		return err
	}
	if err = fill(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.fs.Remove(tmp)
		return err
	}
	if err := w.fs.Rename(tmp, w.path(name)); err != nil {
		return err
	}
	return w.fs.SyncDir(w.dir)
}

// rotate flushes the lane's active segment and switches to the next
// rotation, which it returns. Old segments stay until gc. Any failure
// fences the log.
func (w *WAL) rotate(l *laneLog) (uint64, error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	err := w.flushLocked(l)
	if err == nil {
		err = l.f.Close()
		l.f = nil
	}
	if err == nil {
		err = w.openSegment(l, l.rot+1)
	}
	if err == nil {
		err = w.fs.SyncDir(w.dir)
	}
	if err != nil {
		w.fail(err)
	}
	return l.rot, err
}

// openSegment opens (or creates) the lane's segment for rotation rot as
// its active one. The caller holds l.wmu or is Open, and fsyncs the dir.
func (w *WAL) openSegment(l *laneLog, rot uint64) error {
	f, err := w.fs.OpenAppend(w.path(laneSegName(l.idx, rot)))
	if err != nil {
		return err
	}
	l.f, l.rot = f, rot
	return nil
}

// gc removes the lane's pre-rotation segments and superseded
// checkpoints: everything of this lane below the checkpoint's rotation
// counter. Failures here are ignored: leftover files only cost space and
// replay as seq-skipped no-ops.
func (w *WAL) gc(l *laneLog, ckptRot uint64) {
	names, err := w.fs.List(w.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		for _, format := range []string{segFmt, ckptFmt} {
			if lane, rot, ok := parseLaneFile(format, name); ok && lane == l.idx && rot < ckptRot {
				w.fs.Remove(w.path(name))
			}
		}
	}
}

// path joins a file name onto the log directory.
func (w *WAL) path(name string) string { return filepath.Join(w.dir, name) }

// The one naming scheme. lane is the owning lane; rot is the lane's
// monotonic rotation counter, zero-padded hex so a lane's names sort in
// rotation (and so append) order. The checkpoint named rot is written
// right after rotating to segment rot: it covers every segment of the
// lane below rot (plus, via the seq skip, any prefix of rot itself).
const (
	segFmt  = "lane-%04d-%016x.log"
	ckptFmt = "lckpt-%04d-%016x.ckpt"
)

func laneSegName(lane int, rot uint64) string  { return fmt.Sprintf(segFmt, lane, rot) }
func laneCkptName(lane int, rot uint64) string { return fmt.Sprintf(ckptFmt, lane, rot) }

// parseLaneFile reads a name built from format (segFmt or ckptFmt). Only
// an exact round trip counts, so a ".tmp" sibling or a stray file does
// not parse.
func parseLaneFile(format, name string) (lane int, rot uint64, ok bool) {
	n, err := fmt.Sscanf(name, format, &lane, &rot)
	return lane, rot, err == nil && n == 2 && name == fmt.Sprintf(format, lane, rot)
}
