package tkv

import (
	"sync/atomic"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// counter is the store's operation counter word.
type counter = atomic.Uint64

// freezeAll freezes every shard's gate in ascending shard order (the order
// every multi-gate holder enters them in), giving the caller a cut that no
// batch, and on a logged store no write at all, can intersect. An unlogged
// store's single-key transactions take no gate and are unaffected (they are
// atomic by the STM); each serializes against the cut at its own shard's
// snapshot transaction, which makes the cut serializable but not strictly
// so — see the package comment for the exact guarantee.
func (st *Store) freezeAll() func() {
	for _, s := range st.shards {
		s.gate.freeze()
	}
	return func() {
		for _, s := range st.shards {
			s.gate.unfreeze()
		}
	}
}

// ForEach calls fn for every key/value pair under the snapshot consistency
// described in the package comment, stopping early when fn returns false.
// Unlike stmds.HashMap.ForEach, fn runs outside the shard transactions
// (each shard's pairs are buffered first), so it is called exactly once per
// pair regardless of STM retries.
func (st *Store) ForEach(fn func(key uint64, val string) bool) error {
	st.ops.snapshots.Add(1)
	unlock := st.freezeAll()
	defer unlock()
	var buf []tkvlog.Entry
	for _, s := range st.shards {
		var err error
		if buf, err = s.pairs(buf[:0]); err != nil {
			return err
		}
		for _, p := range buf {
			if !fn(p.Key, p.Val) {
				return nil
			}
		}
	}
	return nil
}

// pairs appends the shard's contents to dst, read in one read-only snapshot
// transaction.
func (s *shard) pairs(dst []tkvlog.Entry) ([]tkvlog.Entry, error) {
	n := len(dst)
	err := s.atomicallyRO(func(tx *stm.ROTx) error {
		dst = dst[:n] // reset: the transaction may retry
		return s.kv.ForEachRO(tx, func(k uint64, v string) bool {
			dst = append(dst, tkvlog.Entry{Key: k, Val: v})
			return true
		})
	})
	return dst, err
}

// Snapshot returns a consistent copy of the whole store.
func (st *Store) Snapshot() (map[uint64]string, error) {
	out := make(map[uint64]string)
	err := st.ForEach(func(k uint64, v string) bool {
		out[k] = v
		return true
	})
	return out, err
}

// Len returns the number of keys under the same cut as Snapshot.
func (st *Store) Len() (int, error) {
	st.ops.snapshots.Add(1)
	unlock := st.freezeAll()
	defer unlock()
	total := 0
	for _, s := range st.shards {
		var n int
		err := s.atomicallyRO(func(tx *stm.ROTx) error {
			var err error
			n, err = s.kv.SizeRO(tx)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// OpCounts is a snapshot of the store's served-operation counters.
type OpCounts struct {
	Gets           uint64 `json:"gets"`
	Puts           uint64 `json:"puts"`
	Deletes        uint64 `json:"deletes"`
	CAS            uint64 `json:"cas"`
	CASMisses      uint64 `json:"casMisses"`
	Adds           uint64 `json:"adds"`
	Batches        uint64 `json:"batches"`
	BatchOps       uint64 `json:"batchOps"`
	BatchCASMisses uint64 `json:"batchCASMisses"`
	MGets          uint64 `json:"mgets"`
	MGetKeys       uint64 `json:"mgetKeys"`
	Snapshots      uint64 `json:"snapshots"`
	// Warmed counts the keys Warm pulled into cache ahead of their reads:
	// the wire server warms the gets of each pipelined cohort.
	Warmed uint64 `json:"warmed"`
}

// ShardStats is one shard's transaction statistics. Commits, Aborts,
// UserAborts and Serializations are the engine counters of the shard's own
// pool threads: a multi-shard transaction counts on the shard whose thread
// ran it (its first), so the shards sum to the store's engine.
// Serializations counts the transaction starts the scheduler serialized
// (zero without one). StripeWaitsShared and StripeWaitsExcl count contended
// acquisitions of the shard's gate (the names outlive the key-lock stripes
// the gate came with, because the benchmark reads the store totals as its
// keylock.waits_* metrics): a shared wait is a snapshot, cut or read-only fence
// pausing for the writes inside the gate, an exclusive wait a write (on an
// unlogged store, a batch) pausing at a frozen gate. Reads never wait.
// ROFallbacks counts reads routed to the logging update path after an RO
// restart streak. Overload and Shed describe the admission layer: the
// controller's EWMA overload score, and the writes shed with backpressure
// (both zero when admission is off).
type ShardStats struct {
	Shard             uint64  `json:"shard"`
	Commits           uint64  `json:"commits"`
	Aborts            uint64  `json:"aborts"`
	UserAborts        uint64  `json:"userAborts"`
	CommitRate        float64 `json:"commitRate"`
	Serializations    uint64  `json:"serializations"`
	StripeWaitsShared uint64  `json:"stripeWaitsShared"`
	StripeWaitsExcl   uint64  `json:"stripeWaitsExcl"`
	ROFallbacks       uint64  `json:"roFallbacks"`
	Overload          float64 `json:"overload,omitempty"`
	Shed              uint64  `json:"shed,omitempty"`
}

// Stats aggregates the store's state: per-shard engine counters (including
// scheduler serializations), gate-wait, RO-fallback and admission
// counters, and store-level op counts. The admission totals (Shed,
// ShedBatches) are zero when the store runs without an admission layer.
type Stats struct {
	Shards            []ShardStats `json:"shards"`
	Commits           uint64       `json:"commits"`
	Aborts            uint64       `json:"aborts"`
	UserAborts        uint64       `json:"userAborts"`
	Serializations    uint64       `json:"serializations"`
	StripeWaitsShared uint64       `json:"stripeWaitsShared"`
	StripeWaitsExcl   uint64       `json:"stripeWaitsExcl"`
	ROFallbacks       uint64       `json:"roFallbacks"`
	Shed              uint64       `json:"shed,omitempty"`
	ShedBatches       uint64       `json:"shedBatches,omitempty"`
	Ops               OpCounts     `json:"ops"`
	// Repl is the replication status (roles, per-shard watermarks, lag,
	// overflows, resyncs); nil when the store runs without a ReplLog.
	Repl *ReplStats `json:"repl,omitempty"`
	// Wal is the durability status (per-shard appended/durable
	// watermarks, group-commit shape, fsync latency, checkpoint and
	// recovery accounting); nil when the store runs without a WAL.
	Wal *tkvwal.Stats `json:"wal,omitempty"`
}

// Stats snapshots the counters. It is cheap (atomic loads only) and safe
// during traffic.
func (st *Store) Stats() Stats {
	out := Stats{Shards: make([]ShardStats, len(st.shards))}
	for i, s := range st.shards {
		agg := s.pool.stats()
		shared, excl := s.gate.waits()
		ss := ShardStats{
			Shard:             uint64(i),
			Commits:           agg.Commits,
			Aborts:            agg.Aborts,
			UserAborts:        agg.UserAborts,
			CommitRate:        agg.CommitRate(),
			Serializations:    agg.Serializations,
			StripeWaitsShared: shared,
			StripeWaitsExcl:   excl,
			ROFallbacks:       s.roFallbacks.Load(),
		}
		if s.ctl != nil {
			ss.Overload = s.ctl.overload()
			ss.Shed = s.ctl.shed.Load()
		}
		out.Shards[i] = ss
		out.Commits += ss.Commits
		out.Aborts += ss.Aborts
		out.UserAborts += ss.UserAborts
		out.Serializations += ss.Serializations
		out.StripeWaitsShared += ss.StripeWaitsShared
		out.StripeWaitsExcl += ss.StripeWaitsExcl
		out.ROFallbacks += ss.ROFallbacks
		out.Shed += ss.Shed
	}
	if st.ctrl != nil {
		out.ShedBatches = st.ctrl.shedBatches.Load()
		out.Shed += out.ShedBatches
	}
	out.Ops = OpCounts{
		Gets:           st.ops.gets.Load(),
		Puts:           st.ops.puts.Load(),
		Deletes:        st.ops.deletes.Load(),
		CAS:            st.ops.cas.Load(),
		CASMisses:      st.ops.casMisses.Load(),
		Adds:           st.ops.adds.Load(),
		Batches:        st.ops.batches.Load(),
		BatchOps:       st.ops.batchOps.Load(),
		BatchCASMisses: st.ops.batchCASMisses.Load(),
		MGets:          st.ops.mgets.Load(),
		MGetKeys:       st.ops.mgetKeys.Load(),
		Snapshots:      st.ops.snapshots.Load(),
		Warmed:         st.ops.warmed.Load(),
	}
	out.Repl = st.replStats()
	if st.wal != nil {
		ws := st.wal.Stats()
		out.Wal = &ws
	}
	return out
}
