package tkvwal

import "time"

// ShardStats is one shard's durability watermarks.
type ShardStats struct {
	// Appended is the last sequence number handed to the log.
	Appended uint64 `json:"appended"`
	// Durable is the last sequence number covered by an fsync (or, in
	// async mode, handed to the OS). Appended minus Durable is the
	// window a crash right now would lose.
	Durable uint64 `json:"durable"`
}

// Stats is the WAL's measurement surface: watermarks per shard,
// group-commit shape (how many records each fsync covered), fsync
// latency, backlog, checkpoint and recovery accounting.
type Stats struct {
	// Mode is the log layout: "shared" (one lane) or "pershard".
	Mode Mode `json:"mode"`

	Shards []ShardStats `json:"shards"`

	Appends uint64 `json:"appends"`
	Fsyncs  uint64 `json:"fsyncs"`

	// BytesAppended is the total encoded record bytes handed to the
	// log since open (recovery not included).
	BytesAppended uint64 `json:"bytes_appended"`
	// PendingBytes is the encoded bytes currently staged and not yet
	// flushed — the lanes' live backlog.
	PendingBytes uint64 `json:"pending_bytes"`
	// PendingPeakBytes is the largest byte count one flush has carried:
	// the backlog watermark, visible before it shows up as ack latency.
	PendingPeakBytes uint64 `json:"pending_peak_bytes"`

	// GroupMean and GroupMax describe records per flushed group — the
	// group-commit overlap. Mean near 1 means fsync-per-write (idle or
	// trickle load); large means many acks amortized one fsync. A group
	// spans the shards of one lane, so in shared mode the mean scales
	// with total writers, not writers-per-shard.
	GroupMean float64 `json:"group_mean"`
	GroupMax  uint64  `json:"group_max"`
	// GroupWaits counts lane collections that were held back for the
	// writers the previous group released (the arrival-driven group
	// formation); GroupWaitTimeouts counts the ones the fallback timer
	// ended because those writers did not return. Timeouts near zero
	// under steady load is the healthy shape; one per drop in load is
	// the design.
	GroupWaits        uint64 `json:"group_waits"`
	GroupWaitTimeouts uint64 `json:"group_wait_timeouts"`

	FsyncP50us uint64 `json:"fsync_p50_us"`
	FsyncP99us uint64 `json:"fsync_p99_us"`

	Checkpoints uint64 `json:"checkpoints"`
	// CheckpointAgeSec is seconds since the last checkpoint, -1 if none
	// has completed yet.
	CheckpointAgeSec float64 `json:"checkpoint_age_sec"`

	Recovery RecoveryStats `json:"recovery"`

	// Sync is false in async (NoSync) mode, where acks do not wait for
	// fsync and the durability contract is weaker.
	Sync bool `json:"sync"`
	// Failed is true once the log is fenced: after a write or fsync
	// error (the process should already be exiting), Abandon, or Close.
	Failed bool `json:"failed"`
}

// DurableLag sums appended-minus-durable over the shards: the record
// count a crash right now would lose (0 when every ack is settled).
func (s *Stats) DurableLag() uint64 {
	var lag uint64
	for _, sh := range s.Shards {
		if sh.Appended > sh.Durable {
			lag += sh.Appended - sh.Durable
		}
	}
	return lag
}

// Stats snapshots the log's counters. Safe under concurrent appends.
func (w *WAL) Stats() Stats {
	st := Stats{
		Mode:              w.opts.Mode,
		Shards:            make([]ShardStats, len(w.shards)),
		Appends:           w.appends.Load(),
		Fsyncs:            w.fsyncs.Load(),
		BytesAppended:     w.bytesAppended.Load(),
		PendingPeakBytes:  w.pendingPeak.Load(),
		GroupMean:         w.groupHist.Mean(),
		GroupMax:          w.groupHist.Max(),
		GroupWaits:        w.groupWaits.Load(),
		GroupWaitTimeouts: w.groupTimeouts.Load(),
		FsyncP50us:        w.fsyncHist.Quantile(0.50),
		FsyncP99us:        w.fsyncHist.Quantile(0.99),
		Checkpoints:       w.checkpoints.Load(),
		CheckpointAgeSec:  -1,
		Recovery:          w.recovered,
		Sync:              !w.opts.NoSync,
		Failed:            w.fenced.Load() != nil,
	}
	if ns := w.lastCkptNS.Load(); ns != 0 {
		st.CheckpointAgeSec = time.Since(time.Unix(0, ns)).Seconds()
	}
	for i, s := range w.shards {
		s.mu.Lock()
		appended := s.appended
		staged := len(s.buf)
		s.mu.Unlock()
		st.Shards[i] = ShardStats{Appended: appended, Durable: s.durable.Load()}
		st.PendingBytes += uint64(staged)
	}
	return st
}
