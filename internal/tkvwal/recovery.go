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
	// Lane is the layout the directory was written with: "shared" for
	// one lane owning every shard, "pershard" for one lane per shard.
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
// then the segment tail. A torn tail at the end of a lane's newest
// segment is truncated (those records were never acknowledged); a torn
// or corrupt record anywhere else refuses to open, because data after it
// would be silently lost if recovery pressed on.
func Open(opts Options, apply func(*tkvlog.Record) error) (*WAL, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("tkvwal: invalid shard count %d", opts.Shards)
	}
	if opts.Dir == "" {
		return nil, errors.New("tkvwal: no directory")
	}
	var err error
	if opts.Mode, err = ParseMode(string(opts.Mode)); err != nil {
		return nil, err
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	w := &WAL{
		dir:     opts.Dir,
		fs:      opts.FS,
		opts:    opts,
		shards:  make([]*shardLog, opts.Shards),
		failedc: make(chan struct{}),
		stopc:   make(chan struct{}),
	}
	// The layout is its shard sets and nothing more: one lane owning
	// every shard, or as many lanes as shards, shard i in lane i.
	lanes := opts.Shards
	if opts.Mode == ModeShared {
		lanes = 1
	}
	for i := 0; i < lanes; i++ {
		l := &laneLog{idx: i, notify: make(chan struct{}, 1), maxWait: laneWaitMax}
		l.cur.Store(&Commit{w: w, done: make(chan struct{})})
		w.lanes = append(w.lanes, l)
	}
	for i := range w.shards {
		l := w.lanes[i%lanes]
		w.shards[i] = &shardLog{idx: i, lane: l}
		l.shards = append(l.shards, w.shards[i])
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
	for _, l := range w.lanes {
		if err := w.recoverLane(l, names, apply); err != nil {
			w.closeFiles()
			return nil, err
		}
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		w.closeFiles()
		return nil, fmt.Errorf("tkvwal: %w", err)
	}
	for _, l := range w.lanes {
		w.wg.Add(1)
		go w.laneLoop(l)
	}
	return w, nil
}

// manifestVersion is the on-disk layout this package reads and writes:
// lane-<lane>-<rot>.log segments and lckpt-<lane>-<rot>.ckpt
// checkpoints, in both modes.
const manifestVersion = 2

// checkManifest validates the directory's pin — format version, shard
// count, layout — or creates it when the directory has none. Only a
// MANIFEST that provably does not exist is created: any other failure
// to read it refuses, or one EIO would let a store reopen a directory
// with other sharding and silently re-pin it.
func (w *WAL) checkManifest() error {
	f, err := w.fs.Open(w.path(manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		data, _ := json.Marshal(manifest{Version: manifestVersion, Shards: w.opts.Shards, Lane: string(w.opts.Mode)})
		err := w.commitFile(manifestName, func(f File) error {
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
	dirMode, err := ParseMode(m.Lane)
	if err != nil {
		return fmt.Errorf("tkvwal: manifest: %w", err)
	}
	if dirMode != w.opts.Mode {
		return fmt.Errorf("tkvwal: directory %s was written in %s mode, store wants %s",
			w.dir, dirMode, w.opts.Mode)
	}
	return nil
}

// scan decodes the records of one file in order, handing each to visit.
// It returns the offset just past the last whole record and the decode
// error that ended the scan (nil at a clean end of file); err is a
// failure to open the file, or visit's.
func (w *WAL) scan(name string, visit func(*tkvlog.Record) error) (end int64, decodeErr, err error) {
	f, err := w.fs.Open(w.path(name))
	if err != nil {
		return 0, nil, fmt.Errorf("tkvwal: %w", err)
	}
	defer f.Close()
	r := tkvlog.NewReader(f)
	var rec tkvlog.Record
	for {
		switch derr := r.Next(&rec); derr {
		case nil:
			if err := visit(&rec); err != nil {
				return r.Offset(), nil, err
			}
		case io.EOF:
			return r.Offset(), nil, nil
		default:
			return r.Offset(), derr, nil
		}
	}
}

// recoverLane replays one lane: its newest checkpoint (one chunked
// snapshot per shard the lane owns), then its segments in rotation
// order, demultiplexing the interleaved records by their shard header
// and skipping what the checkpoint covers. Per shard: a record at or
// below the watermark skips (idempotence), a gap refuses, a record of a
// shard the lane does not own refuses; a torn tail on the lane's newest
// segment truncates, damage anywhere else refuses. On success the
// shards' watermarks are set and the lane's next segment is opened.
func (w *WAL) recoverLane(l *laneLog, names []string, apply func(*tkvlog.Record) error) error {
	// The rotation counter is fixed-width hex, so within a lane name
	// order is rotation order.
	var segs []string
	ckptFile := ""
	var maxRot uint64
	for _, name := range names {
		if lane, rot, ok := parseLaneFile(ckptFmt, name); ok && lane == l.idx {
			ckptFile = max(ckptFile, name)
			maxRot = max(maxRot, rot)
		}
		if lane, rot, ok := parseLaneFile(segFmt, name); ok && lane == l.idx {
			segs = append(segs, name)
			maxRot = max(maxRot, rot)
		}
	}
	sort.Strings(segs)

	// owned resolves a record's shard; the watermark recovery advances is
	// the shard's own appended (nothing else runs yet).
	owned := func(kind, file string, rec *tkvlog.Record) (*shardLog, error) {
		if int(rec.Shard) >= len(w.shards) || w.shards[rec.Shard].lane != l {
			return nil, fmt.Errorf("tkvwal: %s %s carries shard %d of %d, not one of lane %d's (refusing to start)",
				kind, file, rec.Shard, len(w.shards), l.idx)
		}
		return w.shards[rec.Shard], nil
	}

	if ckptFile != "" {
		seen := make(map[*shardLog]bool, len(l.shards))
		_, derr, err := w.scan(ckptFile, func(rec *tkvlog.Record) error {
			s, err := owned("checkpoint", ckptFile, rec)
			if err != nil {
				return err
			}
			if seen[s] && rec.Seq != s.appended {
				// Chunks of one shard's snapshot all carry its cut seq.
				return fmt.Errorf("tkvwal: checkpoint %s shard %d cut seq changed %d -> %d (refusing to start)",
					ckptFile, s.idx, s.appended, rec.Seq)
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
		end, derr, err := w.scan(name, func(rec *tkvlog.Record) error {
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
					name, s.idx, s.appended, rec.Seq)
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
		// Torn tail of the lane's newest segment: the crash interrupted
		// an un-acknowledged group. Cut it and move on.
		torn := w.segSizeAfter(name, end)
		if err := w.fs.Truncate(w.path(name), end); err != nil {
			return fmt.Errorf("tkvwal: truncating torn tail of %s: %w", name, err)
		}
		w.recovered.TruncatedBytes += torn
	}

	for _, s := range l.shards {
		s.durable.Store(s.appended)
		s.lastCkptSeq.Store(s.appended) // fresh ckpt not needed until new appends
	}
	if err := w.openSegment(l, maxRot+1); err != nil {
		return fmt.Errorf("tkvwal: %w", err)
	}
	return nil
}

// segSizeAfter reports how many bytes past offset the (pre-truncation)
// segment held — best effort, for the recovery stats only.
func (w *WAL) segSizeAfter(name string, offset int64) int64 {
	f, err := w.fs.Open(w.path(name))
	if err != nil {
		return 0
	}
	defer f.Close()
	n, _ := io.Copy(io.Discard, f)
	if n > offset {
		return n - offset
	}
	return 0
}
