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

// Checkpoint snapshots every shard and truncates the log. The protocol
// is ordered so a crash at any point loses nothing:
//
//  1. rotate: flush + fsync the active segment and start a fresh one,
//     so every record in the old segments precedes the cut;
//  2. cut: the caller captures a consistent snapshot of each shard and
//     its head sequence (the store freezes the shard's gate, which
//     briefly excludes writers — see Store.cutShard — so the caller must
//     not hold one);
//  3. write the snapshots to a tmp file, fsync, rename into place,
//     fsync the directory — the rename is the commit point;
//  4. gc: delete the pre-rotation segments and older checkpoints, all
//     of whose records the checkpoint now covers.
//
// A crash before 3 recovers from the previous checkpoint plus all
// segments; after 3, from the new checkpoint plus the fresh segment
// (records with seq at or below the cut replay as no-ops via the seq
// skip). cut is called once per shard, in order, so only one shard's
// snapshot is in memory at a time; the file carries one chunked snapshot
// per shard, every chunk carrying that shard's cut seq. A checkpoint
// never covers less than every shard: one holding some of them would
// supersede the others' segments without their data.
//
// A no-op when no shard has appended since the last checkpoint, unless
// force is set — a restore changes store state
// without appending (its numbering arrives via the cut seq), so the
// append watermarks cannot see that kind of dirt. A shard whose watermark
// no append has moved since its cut began takes the cut's seq as its
// watermark, lower or higher: a restore to an older cut leaves the log and
// the store on one number, and an idle shard stays clean.
func (w *WAL) Checkpoint(cut func(shard int) ([]tkvlog.Entry, uint64, error), force bool) error {
	if err := w.Err(); err != nil {
		return err
	}
	dirty := force
	for _, s := range w.shards {
		s.mu.Lock()
		dirty = dirty || s.appended != s.lastCkptSeq.Load()
		s.mu.Unlock()
	}
	if !dirty {
		return nil
	}
	rot, err := w.rotate()
	if err != nil {
		return err
	}
	cutSeqs := make([]uint64, len(w.shards))
	before := make([]uint64, len(w.shards)) // each shard's appended as its cut began
	var cutErr error
	err = w.commitFile(ckptName(rot), func(f File) error {
		var buf []byte
		for i, s := range w.shards {
			s.mu.Lock()
			before[i] = s.appended
			s.mu.Unlock()
			entries, seq, err := cut(i)
			if err != nil {
				cutErr = err
				return err
			}
			cutSeqs[i] = seq
			rec := tkvlog.Record{Shard: uint16(i), Seq: seq}
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
	w.gc(rot)
	for i, s := range w.shards {
		// The cut's seq is the shard's number, forward or back (a restore
		// re-bases it without appending), unless an append has moved the
		// watermark since the cut began: that one is newer than the cut and
		// stays.
		seq := cutSeqs[i]
		s.mu.Lock()
		rebase := s.appended == before[i] || seq > s.appended
		if rebase {
			s.appended = seq
		}
		s.mu.Unlock()
		if rebase || seq > s.durable.Load() {
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

// rotate flushes the active segment and switches to the next rotation,
// which it returns. Old segments stay until gc. Any failure fences the
// log.
func (w *WAL) rotate() (uint64, error) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	err := w.flushLocked()
	if err == nil {
		err = w.f.Close()
		w.f = nil
	}
	if err == nil {
		err = w.openSegment(w.rot + 1)
	}
	if err == nil {
		err = w.fs.SyncDir(w.dir)
	}
	if err != nil {
		w.fail(err)
	}
	return w.rot, err
}

// openSegment opens (or creates) the segment for rotation rot as the
// active one. The caller holds w.wmu or is Open, and fsyncs the dir.
func (w *WAL) openSegment(rot uint64) error {
	f, err := w.fs.OpenAppend(w.path(segName(rot)))
	if err != nil {
		return err
	}
	w.f, w.rot = f, rot
	return nil
}

// gc removes the pre-rotation segments and superseded checkpoints:
// everything below the checkpoint's rotation counter. Failures here are
// ignored: leftover files only cost space and replay as seq-skipped
// no-ops.
func (w *WAL) gc(ckptRot uint64) {
	names, err := w.fs.List(w.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		for _, format := range []string{segFmt, ckptFmt} {
			if rot, ok := parseFile(format, name); ok && rot < ckptRot {
				w.fs.Remove(w.path(name))
			}
		}
	}
}

// path joins a file name onto the log directory.
func (w *WAL) path(name string) string { return filepath.Join(w.dir, name) }

// The one naming scheme. rot is the monotonic rotation counter,
// zero-padded hex so the names sort in rotation (and so append) order.
// The checkpoint named rot is written right after rotating to segment
// rot: it covers every segment below rot (plus, via the seq skip, any
// prefix of rot itself). The 0000 is the lane index that version 2 of
// the format carries in every name; with one lane it is always 0.
const (
	segFmt  = "lane-0000-%016x.log"
	ckptFmt = "lckpt-0000-%016x.ckpt"
)

func segName(rot uint64) string  { return fmt.Sprintf(segFmt, rot) }
func ckptName(rot uint64) string { return fmt.Sprintf(ckptFmt, rot) }

// parseFile reads a name built from format (segFmt or ckptFmt). Only an
// exact round trip counts, so a ".tmp" sibling or a stray file does not
// parse.
func parseFile(format, name string) (rot uint64, ok bool) {
	n, err := fmt.Sscanf(name, format, &rot)
	return rot, err == nil && n == 1 && name == fmt.Sprintf(format, rot)
}
