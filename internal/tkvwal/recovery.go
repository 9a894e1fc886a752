package tkvwal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// manifestName pins the log directory's shard count and layout.
const manifestName = "MANIFEST"

type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// Lane is the layout the directory was written with. This build
	// writes and reads "shared" (one lane owning every shard) only.
	Lane string `json:"lane,omitempty"`
}

// RecoveryStats reports what Open replayed, for the boot log line and
// /stats.
type RecoveryStats struct {
	// CheckpointEntries is the total entry count restored from
	// checkpoint snapshots.
	CheckpointEntries uint64 `json:"checkpoint_entries"`
	// Replayed is the record count applied from segment tails beyond
	// their checkpoints.
	Replayed uint64 `json:"replayed"`
	// Skipped is the record count already covered by a checkpoint.
	Skipped uint64 `json:"skipped"`
	// TruncatedBytes is the torn-tail byte count cut from the last
	// segment (zero on a clean shutdown).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Segments is the segment file count scanned.
	Segments int `json:"segments"`
}

// Open recovers the log directory and returns a running WAL. Every
// recovered record is handed to apply in sequence order per shard —
// checkpoint snapshots first (records carrying the checkpoint seq),
// then the segment tail. A torn tail at the end of the newest segment is
// truncated (those records were never acknowledged); a torn or corrupt
// record anywhere else refuses to open, because data after it would be
// silently lost if recovery pressed on.
func Open(opts Options, apply func(*tkvlog.Record) error) (*WAL, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("tkvwal: invalid shard count %d", opts.Shards)
	}
	if opts.Dir == "" {
		return nil, errors.New("tkvwal: no directory")
	}
	if opts.Mode != "" && opts.Mode != ModeShared {
		return nil, fmt.Errorf("tkvwal: unknown layout %q (the log has one, %q)", opts.Mode, ModeShared)
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	w := &WAL{
		dir:     opts.Dir,
		fs:      opts.FS,
		opts:    opts,
		shards:  make([]*shardLog, opts.Shards),
		notify:  make(chan struct{}, 1),
		failedc: make(chan struct{}),
		stopc:   make(chan struct{}),
	}
	w.group = &Commit{w: w, done: make(chan struct{})}
	for i := range w.shards {
		w.shards[i] = &shardLog{ticket: w.group}
	}
	if err := w.fs.MkdirAll(w.dir); err != nil {
		return nil, fmt.Errorf("tkvwal: %w", err)
	}
	if err := w.checkManifest(); err != nil {
		return nil, err
	}
	names, err := w.fs.List(w.dir)
	if err != nil {
		return nil, fmt.Errorf("tkvwal: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			w.fs.Remove(w.path(name)) // an uncommitted checkpoint or manifest
		}
	}
	if err := w.recover(names, apply); err != nil {
		w.closeFiles()
		return nil, err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		w.closeFiles()
		return nil, fmt.Errorf("tkvwal: %w", err)
	}
	w.wg.Add(1)
	go w.laneLoop()
	return w, nil
}

// manifestVersion is the on-disk format this package reads and writes:
// lane-0000-<rot>.log segments and lckpt-0000-<rot>.ckpt checkpoints.
const manifestVersion = 2

// checkManifest validates the directory's pin — format version, shard
// count, layout — or creates it when the directory has none. Only a
// MANIFEST that provably does not exist is created, and only in a directory
// that holds no segment or checkpoint: any other failure to read it
// refuses, or one EIO or one deleted file would let a store reopen a
// directory with other sharding and silently re-pin it.
func (w *WAL) checkManifest() error {
	f, err := w.fs.Open(w.path(manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		names, err := w.fs.List(w.dir)
		if err != nil {
			return fmt.Errorf("tkvwal: %w", err)
		}
		for _, name := range names {
			_, seg := parseFile(segFmt, name)
			_, ckpt := parseFile(ckptFmt, name)
			if seg || ckpt {
				return fmt.Errorf("tkvwal: directory %s holds %s but no MANIFEST (refusing to start)", w.dir, name)
			}
		}
		data, _ := json.Marshal(manifest{Version: manifestVersion, Shards: w.opts.Shards, Lane: string(ModeShared)})
		err = w.commitFile(manifestName, func(f File) error {
			_, err := f.Write(append(data, '\n'))
			return err
		})
		if err != nil {
			return fmt.Errorf("tkvwal: manifest: %w", err)
		}
		return nil
	}
	var data []byte
	if err == nil {
		data, err = io.ReadAll(f)
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("tkvwal: manifest unreadable (refusing to start): %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("tkvwal: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		// Version 1 is the retired wal-*/ckpt-* naming; nothing reads it.
		return fmt.Errorf("tkvwal: directory %s has manifest version %d, this build reads and writes version %d only (refusing to start)",
			w.dir, m.Version, manifestVersion)
	}
	if m.Shards != w.opts.Shards {
		return fmt.Errorf("tkvwal: directory %s was written with %d shards, store has %d",
			w.dir, m.Shards, w.opts.Shards)
	}
	if m.Lane != string(ModeShared) {
		// A version 2 MANIFEST without a lane field is a per-shard one: that
		// layout was written as the zero value.
		lane := m.Lane
		if lane == "" {
			lane = "one lane per shard (no lane field)"
		}
		return fmt.Errorf("tkvwal: directory %s was written in WAL layout %q, this build reads %q only (refusing to start)",
			w.dir, lane, ModeShared)
	}
	return nil
}

// scan decodes the records of one file in order, handing each to visit.
// It returns the file's reader, whose Offset is just past the last whole
// record and whose Buffered bytes are what follows it, and the decode error
// that ended the scan (nil at a clean end of file); err is a failure to open
// the file, or visit's.
func (w *WAL) scan(name string, visit func(*tkvlog.Record) error) (r *tkvlog.Reader, decodeErr, err error) {
	f, err := w.fs.Open(w.path(name))
	if err != nil {
		return nil, nil, fmt.Errorf("tkvwal: %w", err)
	}
	defer f.Close()
	r = tkvlog.NewReader(f)
	var rec tkvlog.Record
	for {
		switch derr := r.Next(&rec); derr {
		case nil:
			if err := visit(&rec); err != nil {
				return r, nil, err
			}
		case io.EOF:
			return r, nil, nil
		default:
			return r, derr, nil
		}
	}
}

// recover replays the directory: its newest checkpoint (one chunked
// snapshot per shard), then the segments in rotation order,
// demultiplexing the interleaved records by their shard header and
// skipping what the checkpoint covers. Per shard: a record at or below
// the watermark skips (idempotence), a gap refuses, a record of a shard
// out of range refuses; a torn tail on the newest segment truncates,
// damage anywhere else refuses. On success the shards' watermarks are set
// and the next segment is opened.
func (w *WAL) recover(names []string, apply func(*tkvlog.Record) error) error {
	// The rotation counter is fixed-width hex, so name order is rotation
	// order.
	var segs []string
	ckptFile := ""
	var maxRot uint64
	for _, name := range names {
		if rot, ok := parseFile(ckptFmt, name); ok {
			ckptFile = max(ckptFile, name)
			maxRot = max(maxRot, rot)
		}
		if rot, ok := parseFile(segFmt, name); ok {
			segs = append(segs, name)
			maxRot = max(maxRot, rot)
		}
	}
	sort.Strings(segs)

	// owned resolves a record's shard; the watermark recovery advances is
	// the shard's own appended (nothing else runs yet).
	owned := func(kind, file string, rec *tkvlog.Record) (*shardLog, error) {
		if int(rec.Shard) >= len(w.shards) {
			return nil, fmt.Errorf("tkvwal: %s %s carries shard %d of %d (refusing to start)",
				kind, file, rec.Shard, len(w.shards))
		}
		return w.shards[rec.Shard], nil
	}

	if ckptFile != "" {
		seen := make(map[*shardLog]bool, len(w.shards))
		_, derr, err := w.scan(ckptFile, func(rec *tkvlog.Record) error {
			s, err := owned("checkpoint", ckptFile, rec)
			if err != nil {
				return err
			}
			if seen[s] && rec.Seq != s.appended {
				// Chunks of one shard's snapshot all carry its cut seq.
				return fmt.Errorf("tkvwal: checkpoint %s shard %d cut seq changed %d -> %d (refusing to start)",
					ckptFile, rec.Shard, s.appended, rec.Seq)
			}
			seen[s] = true
			s.appended = rec.Seq
			w.recovered.CheckpointEntries += uint64(len(rec.Entries))
			if err := apply(rec); err != nil {
				return fmt.Errorf("tkvwal: checkpoint apply: %w", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if derr != nil {
			// A checkpoint is renamed into place only after its fsync;
			// damage here is corruption, not a torn write.
			return fmt.Errorf("tkvwal: checkpoint %s unreadable (refusing to start): %w", ckptFile, derr)
		}
	}

	for i, name := range segs {
		w.recovered.Segments++
		r, derr, err := w.scan(name, func(rec *tkvlog.Record) error {
			s, err := owned("segment", name, rec)
			if err != nil {
				return err
			}
			if rec.Seq <= s.appended {
				w.recovered.Skipped++
				return nil
			}
			if rec.Seq != s.appended+1 {
				return fmt.Errorf("tkvwal: segment %s jumps shard %d from seq %d to %d (refusing to start)",
					name, rec.Shard, s.appended, rec.Seq)
			}
			if err := apply(rec); err != nil {
				return fmt.Errorf("tkvwal: replay apply: %w", err)
			}
			s.appended = rec.Seq
			w.recovered.Replayed++
			return nil
		})
		if err != nil {
			return err
		}
		if derr == nil {
			continue
		}
		if !errors.Is(derr, tkvlog.ErrShort) || i != len(segs)-1 {
			return fmt.Errorf("tkvwal: segment %s unreadable (refusing to start): %w", name, derr)
		}
		// Torn tail of the newest segment: the crash interrupted an
		// un-acknowledged group. Cut it, and make the cut durable before the
		// next segment is: a tail that came back behind a newer segment
		// would no longer be the newest's, and the next Open would refuse.
		if err := w.truncate(name, r.Offset()); err != nil {
			return fmt.Errorf("tkvwal: truncating torn tail of %s: %w", name, err)
		}
		w.recovered.TruncatedBytes += int64(r.Buffered())
	}

	for _, s := range w.shards {
		s.durable.Store(s.appended)
		s.lastCkptSeq.Store(s.appended) // fresh ckpt not needed until new appends
	}
	if err := w.openSegment(maxRot + 1); err != nil {
		return fmt.Errorf("tkvwal: %w", err)
	}
	return nil
}

// truncate cuts name to size and fsyncs it.
func (w *WAL) truncate(name string, size int64) error {
	if err := w.fs.Truncate(w.path(name), size); err != nil {
		return err
	}
	f, err := w.fs.OpenAppend(w.path(name))
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
