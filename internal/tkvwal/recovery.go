package tkvwal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// the single-lane layout, "pershard" or absent (pre-lane
	// directories) for one log per shard.
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

// normalizeMode maps the Options zero value to ModePerShard and rejects
// anything that is not a known layout.
func normalizeMode(m Mode) (Mode, error) {
	switch m {
	case "", ModePerShard:
		return ModePerShard, nil
	case ModeShared:
		return ModeShared, nil
	default:
		return "", fmt.Errorf("tkvwal: unknown mode %q", m)
	}
}

// Open recovers the log directory and returns a running WAL. Every
// recovered record is handed to apply in sequence order per shard —
// checkpoint snapshots first (records carrying the checkpoint seq),
// then the segment tail. A torn tail at the end of the last segment is
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
	mode, err := normalizeMode(opts.Mode)
	if err != nil {
		return nil, err
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	w := &WAL{
		dir:     opts.Dir,
		fs:      fs,
		opts:    opts,
		mode:    mode,
		shards:  make([]*shardLog, opts.Shards),
		failedc: make(chan struct{}),
		stopc:   make(chan struct{}),
	}
	if mode == ModeShared {
		w.lane = &laneLog{notify: make(chan struct{}, 1), maxWait: laneWaitMax}
		w.lane.cur.Store(&Commit{w: w, done: make(chan struct{})})
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("tkvwal: %w", err)
	}
	if err := w.checkManifest(); err != nil {
		return nil, err
	}
	names, err := fs.List(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("tkvwal: %w", err)
	}
	// Tmp files are uncommitted checkpoints or manifests: discard.
	kept := names[:0]
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			w.fs.Remove(w.path(name))
			continue
		}
		kept = append(kept, name)
	}
	names = kept

	for i := range w.shards {
		w.shards[i] = &shardLog{idx: i, notify: make(chan struct{}, 1)}
	}
	if mode == ModeShared {
		if err := w.recoverLane(names, apply); err != nil {
			return nil, err
		}
		if err := fs.SyncDir(opts.Dir); err != nil {
			return nil, fmt.Errorf("tkvwal: %w", err)
		}
		w.wg.Add(1)
		go w.laneLoop()
		return w, nil
	}
	for _, s := range w.shards {
		s.cur = &Commit{w: w, done: make(chan struct{})}
		last, err := w.recoverShard(s, names, apply)
		if err != nil {
			return nil, err
		}
		s.appended = last
		s.durable.Store(last)
		s.lastCkptSeq.Store(last) // fresh ckpt not needed until new appends
		s.activeSeg = last + 1
		f, err := fs.OpenAppend(w.path(segName(s.idx, s.activeSeg)))
		if err != nil {
			return nil, fmt.Errorf("tkvwal: %w", err)
		}
		s.f = f
	}
	if err := fs.SyncDir(opts.Dir); err != nil {
		return nil, fmt.Errorf("tkvwal: %w", err)
	}
	for _, s := range w.shards {
		w.wg.Add(1)
		go w.syncLoop(s)
	}
	return w, nil
}

// checkManifest validates or creates the directory's shard-count and
// layout pin.
func (w *WAL) checkManifest() error {
	f, err := w.fs.Open(w.path(manifestName))
	if err == nil {
		data, rerr := io.ReadAll(f)
		f.Close()
		if rerr != nil {
			return fmt.Errorf("tkvwal: manifest: %w", rerr)
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("tkvwal: manifest: %w", err)
		}
		if m.Shards != w.opts.Shards {
			return fmt.Errorf("tkvwal: directory %s was written with %d shards, store has %d",
				w.dir, m.Shards, w.opts.Shards)
		}
		dirMode, err := normalizeMode(Mode(m.Lane))
		if err != nil {
			return fmt.Errorf("tkvwal: manifest: %w", err)
		}
		if dirMode != w.mode {
			return fmt.Errorf("tkvwal: directory %s was written in %s mode, store wants %s",
				w.dir, dirMode, w.mode)
		}
		return nil
	}
	data, _ := json.Marshal(manifest{Version: 1, Shards: w.opts.Shards, Lane: string(w.mode)})
	tmp := manifestName + ".tmp"
	mf, err := w.fs.Create(w.path(tmp))
	if err != nil {
		return fmt.Errorf("tkvwal: manifest: %w", err)
	}
	if _, err := mf.Write(append(data, '\n')); err != nil {
		mf.Close()
		return fmt.Errorf("tkvwal: manifest: %w", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return fmt.Errorf("tkvwal: manifest: %w", err)
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("tkvwal: manifest: %w", err)
	}
	if err := w.fs.Rename(w.path(tmp), w.path(manifestName)); err != nil {
		return fmt.Errorf("tkvwal: manifest: %w", err)
	}
	return w.fs.SyncDir(w.dir)
}

// recoverShard replays one shard: newest checkpoint, then segments in
// start order, skipping records the checkpoint covers. Returns the last
// applied sequence number.
func (w *WAL) recoverShard(s *shardLog, names []string, apply func(*tkvlog.Record) error) (uint64, error) {
	var ckptSeq uint64
	ckptFile := ""
	type seg struct {
		name  string
		start uint64
	}
	var segs []seg
	for _, name := range names {
		if shard, seq, ok := parseCkpt(name); ok && shard == s.idx {
			if seq >= ckptSeq {
				ckptSeq, ckptFile = seq, name
			}
		}
		if shard, start, ok := parseSeg(name); ok && shard == s.idx {
			segs = append(segs, seg{name, start})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	last := ckptSeq
	if ckptFile != "" {
		f, err := w.fs.Open(w.path(ckptFile))
		if err != nil {
			return 0, fmt.Errorf("tkvwal: %w", err)
		}
		r := tkvlog.NewReader(f)
		var rec tkvlog.Record
		for {
			err := r.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				// A checkpoint is renamed into place only after its
				// fsync; damage here is corruption, not a torn write.
				f.Close()
				return 0, fmt.Errorf("tkvwal: checkpoint %s unreadable (refusing to start): %w", ckptFile, err)
			}
			if int(rec.Shard) != s.idx || rec.Seq != ckptSeq {
				f.Close()
				return 0, fmt.Errorf("tkvwal: checkpoint %s carries shard %d seq %d (refusing to start)",
					ckptFile, rec.Shard, rec.Seq)
			}
			w.recovered.CheckpointEntries += uint64(len(rec.Entries))
			if err := apply(&rec); err != nil {
				f.Close()
				return 0, fmt.Errorf("tkvwal: checkpoint apply: %w", err)
			}
		}
		f.Close()
	}

	for i, sg := range segs {
		w.recovered.Segments++
		f, err := w.fs.Open(w.path(sg.name))
		if err != nil {
			return 0, fmt.Errorf("tkvwal: %w", err)
		}
		r := tkvlog.NewReader(f)
		var rec tkvlog.Record
		var segErr error
		for {
			err := r.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				segErr = err
				break
			}
			if int(rec.Shard) != s.idx {
				f.Close()
				return 0, fmt.Errorf("tkvwal: segment %s carries shard %d (refusing to start)", sg.name, rec.Shard)
			}
			if rec.Seq <= last {
				w.recovered.Skipped++
				continue
			}
			if rec.Seq != last+1 {
				f.Close()
				return 0, fmt.Errorf("tkvwal: segment %s jumps shard %d from seq %d to %d (refusing to start)",
					sg.name, s.idx, last, rec.Seq)
			}
			if err := apply(&rec); err != nil {
				f.Close()
				return 0, fmt.Errorf("tkvwal: replay apply: %w", err)
			}
			last = rec.Seq
			w.recovered.Replayed++
		}
		f.Close()
		if segErr != nil {
			if errors.Is(segErr, tkvlog.ErrShort) && i == len(segs)-1 {
				// Torn tail of the newest segment: the crash interrupted
				// an un-acknowledged group. Cut it and move on.
				torn := w.segSizeAfter(sg.name, r.Offset())
				if err := w.fs.Truncate(w.path(sg.name), r.Offset()); err != nil {
					return 0, fmt.Errorf("tkvwal: truncating torn tail of %s: %w", sg.name, err)
				}
				w.recovered.TruncatedBytes += torn
				continue
			}
			return 0, fmt.Errorf("tkvwal: segment %s unreadable (refusing to start): %w", sg.name, segErr)
		}
	}
	return last, nil
}

// recoverLane replays the shared-lane layout: the newest lane
// checkpoint (per-shard cut records in one file), then every lane
// segment in rotation order, demultiplexing the interleaved records by
// their shard header. Per-shard sequence rules are the same as
// per-shard recovery: at-or-below the watermark skips (idempotence), a
// gap refuses, a torn tail on the newest segment truncates, corruption
// anywhere refuses. On success the shards' watermarks are set and the
// next lane segment is opened.
func (w *WAL) recoverLane(names []string, apply func(*tkvlog.Record) error) error {
	var ckptRot uint64
	ckptFile := ""
	type seg struct {
		name string
		rot  uint64
	}
	var segs []seg
	var maxRot uint64
	for _, name := range names {
		if rot, ok := parseLaneCkpt(name); ok {
			if ckptFile == "" || rot >= ckptRot {
				ckptRot, ckptFile = rot, name
			}
			if rot > maxRot {
				maxRot = rot
			}
		}
		if rot, ok := parseLaneSeg(name); ok {
			segs = append(segs, seg{name, rot})
			if rot > maxRot {
				maxRot = rot
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].rot < segs[j].rot })

	last := make([]uint64, len(w.shards))
	seen := make([]bool, len(w.shards))
	if ckptFile != "" {
		f, err := w.fs.Open(w.path(ckptFile))
		if err != nil {
			return fmt.Errorf("tkvwal: %w", err)
		}
		r := tkvlog.NewReader(f)
		var rec tkvlog.Record
		for {
			err := r.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("tkvwal: checkpoint %s unreadable (refusing to start): %w", ckptFile, err)
			}
			shard := int(rec.Shard)
			if shard < 0 || shard >= len(w.shards) {
				f.Close()
				return fmt.Errorf("tkvwal: checkpoint %s carries shard %d of %d (refusing to start)",
					ckptFile, shard, len(w.shards))
			}
			if seen[shard] && rec.Seq != last[shard] {
				// Chunks of one shard's snapshot all carry its cut seq.
				f.Close()
				return fmt.Errorf("tkvwal: checkpoint %s shard %d cut seq changed %d -> %d (refusing to start)",
					ckptFile, shard, last[shard], rec.Seq)
			}
			seen[shard] = true
			last[shard] = rec.Seq
			w.recovered.CheckpointEntries += uint64(len(rec.Entries))
			if err := apply(&rec); err != nil {
				f.Close()
				return fmt.Errorf("tkvwal: checkpoint apply: %w", err)
			}
		}
		f.Close()
	}

	for i, sg := range segs {
		w.recovered.Segments++
		f, err := w.fs.Open(w.path(sg.name))
		if err != nil {
			return fmt.Errorf("tkvwal: %w", err)
		}
		r := tkvlog.NewReader(f)
		var rec tkvlog.Record
		var segErr error
		for {
			err := r.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				segErr = err
				break
			}
			shard := int(rec.Shard)
			if shard < 0 || shard >= len(w.shards) {
				f.Close()
				return fmt.Errorf("tkvwal: segment %s carries shard %d of %d (refusing to start)",
					sg.name, shard, len(w.shards))
			}
			if rec.Seq <= last[shard] {
				w.recovered.Skipped++
				continue
			}
			if rec.Seq != last[shard]+1 {
				f.Close()
				return fmt.Errorf("tkvwal: segment %s jumps shard %d from seq %d to %d (refusing to start)",
					sg.name, shard, last[shard], rec.Seq)
			}
			if err := apply(&rec); err != nil {
				f.Close()
				return fmt.Errorf("tkvwal: replay apply: %w", err)
			}
			last[shard] = rec.Seq
			w.recovered.Replayed++
		}
		f.Close()
		if segErr != nil {
			if errors.Is(segErr, tkvlog.ErrShort) && i == len(segs)-1 {
				torn := w.segSizeAfter(sg.name, r.Offset())
				if err := w.fs.Truncate(w.path(sg.name), r.Offset()); err != nil {
					return fmt.Errorf("tkvwal: truncating torn tail of %s: %w", sg.name, err)
				}
				w.recovered.TruncatedBytes += torn
				continue
			}
			return fmt.Errorf("tkvwal: segment %s unreadable (refusing to start): %w", sg.name, segErr)
		}
	}

	for i, s := range w.shards {
		s.appended = last[i]
		s.durable.Store(last[i])
		s.lastCkptSeq.Store(last[i]) // fresh ckpt not needed until new appends
	}
	w.lane.rot = maxRot + 1
	f, err := w.fs.OpenAppend(w.path(laneSegName(w.lane.rot)))
	if err != nil {
		return fmt.Errorf("tkvwal: %w", err)
	}
	w.lane.f = f
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
