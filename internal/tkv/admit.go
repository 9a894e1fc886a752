package tkv

import (
	"errors"
	"math"
	"sync"
	"time"
)

// ErrBackpressure is returned when the admission layer sheds a write or a
// batch because its shard (for a batch, the worst shard) is past the
// overload knee. It is explicit backpressure, not a failure: nothing was
// written, and the client should back off and retry. The wire protocol maps
// it to StatusBackpressure.
var ErrBackpressure = errors.New("tkv: overloaded, request shed")

// ShedLowPriority reports whether a low-priority request (a batch) arriving
// right now should be shed, charging the store's shed counters when it says
// yes. It is the one admission decision a batch gets: Batch itself sheds
// nothing, and a serving layer calls this before decoding a batch request,
// so rejection costs nothing — no parse, no op structs — on exactly the
// path that is hottest under overload. Always false when admission is
// disabled.
func (st *Store) ShedLowPriority() bool {
	return st.ctrl != nil && st.ctrl.shedLowPriority()
}

// AdmitConfig parameterizes the admission layer: per shard, an AIMD
// controller that sheds writes, and batches at twice the rate, with
// ErrBackpressure once the shard's overload score is past the knee, and
// refuses nothing below it. The zero value is not usable; start from
// DefaultAdmitConfig. Enabled by setting Config.Admission.
type AdmitConfig struct {
	// Tick is the controller's sampling period (default 100ms): each tick
	// re-reads every shard's commit, abort, serialization and gate-wait
	// counters and updates its overload score and shed probability.
	Tick time.Duration
	// ShedKnee is the overload score past which a shard starts shedding
	// writes. The score is the shard's cure cost per unit of progress:
	// (aborts + scheduler serializations + gate waits) / commits over the
	// last tick, EWMA-smoothed; a gate wait is a write (on an unlogged
	// store, a batch) held at its shard's gate by a snapshot, cut or fence,
	// or one of those waiting the writes out. A tick whose window holds
	// fewer than 32 commits and cures scores zero. Below the knee the shed
	// probability decays to zero; above it, it ramps toward ShedMax. A
	// knee <= 0 means "always past the knee" — the shard sheds at ShedMax
	// unconditionally, which exists for tests and operational drills, not
	// for serving.
	ShedKnee float64
	// ShedMax caps the shed probability (default 0.8): even fully
	// overloaded, 1-ShedMax of write traffic is admitted so the
	// controller keeps observing real progress.
	ShedMax float64
}

// DefaultAdmitConfig returns the defaults described on the fields.
func DefaultAdmitConfig() AdmitConfig {
	return AdmitConfig{Tick: 100 * time.Millisecond, ShedKnee: 1.5, ShedMax: 0.8}
}

// normalized fills zero fields with defaults.
func (c AdmitConfig) normalized() AdmitConfig {
	d := DefaultAdmitConfig()
	if c.Tick <= 0 {
		c.Tick = d.Tick
	}
	if c.ShedMax <= 0 || c.ShedMax > 1 {
		c.ShedMax = d.ShedMax
	}
	return c
}

// shardCtl is one shard's admission state: the shed probability and
// overload score the controller maintains, and the shed counter the stats
// surface reports. The write path touches only shedBits (one atomic load per
// write when the shard is healthy).
type shardCtl struct {
	shedBits     counter // math.Float64bits of the shed probability
	overloadBits counter // math.Float64bits of the EWMA overload score
	rngState     counter // per-shard shed coin state (splitmix64 stream)
	shed         counter // writes rejected with ErrBackpressure by this shard

	// Controller-goroutine-only: the previous tick's counter snapshot.
	lastCommits, lastAborts, lastSerials, lastWaits uint64
}

// rand01 draws from a per-shard splitmix64 stream in [0, 1). Atomic
// increment keeps concurrent writers from sharing draws without a lock.
func (c *shardCtl) rand01() float64 {
	return float64(mix64(c.rngState.Add(0x9e3779b97f4a7c15))>>11) / (1 << 53)
}

// shedProb returns the shard's current shed probability.
func (c *shardCtl) shedProb() float64 { return math.Float64frombits(c.shedBits.Load()) }

// overload returns the shard's current EWMA overload score.
func (c *shardCtl) overload() float64 { return math.Float64frombits(c.overloadBits.Load()) }

// admitWrite gates one single-key write: ErrBackpressure with the shard's
// shed probability, nil otherwise. A healthy shard's probability is zero, so
// the write pays one atomic load and allocates nothing.
func (c *shardCtl) admitWrite() error {
	if p := c.shedProb(); p > 0 && c.rand01() < p {
		c.shed.Add(1)
		return ErrBackpressure
	}
	return nil
}

// controller closes the loop from the counters the store already emits to
// admission decisions: a goroutine samples every shard each Tick, scores
// overload as cure cost per commit, and sets the per-shard shed probability
// (additive ramp above the knee, multiplicative decay below — the same AIMD
// shape TCP uses, for the same reason: probe gently, back off hard).
type controller struct {
	st  *Store
	cfg AdmitConfig

	shards []shardCtl // parallel to st.shards

	maxShedBits counter // max over shards, for store-level low-priority shed
	shedBatches counter // batches shed before planning

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func newController(st *Store, cfg AdmitConfig) *controller {
	c := &controller{
		st:     st,
		cfg:    cfg,
		shards: make([]shardCtl, len(st.shards)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range c.shards {
		c.shards[i].rngState.Store(uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	return c
}

// run is the controller goroutine.
func (c *controller) run() {
	t := time.NewTicker(c.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			close(c.done)
			return
		case <-t.C:
			c.tick()
		}
	}
}

// minScored is the fewest commits and cures a shard's tick window must hold
// for the controller to score it. Under TestAdmissionIdleIsInvisible's
// healthy load, windows of 3 to 18 that a tick cut at the start of a burst
// scored 2 to 4.5, past the default knee once smoothed; no window of 24 or
// more scored above 1.31.
const minScored = 32

// tick samples every shard and updates its admission state.
func (c *controller) tick() {
	var maxProb float64
	for i, s := range c.st.shards {
		sc := &c.shards[i]
		agg := s.pool.stats()
		shared, excl := s.gate.waits()
		waits := shared + excl

		dCommits := agg.Commits - sc.lastCommits
		dAborts := agg.Aborts - sc.lastAborts
		dSerials := agg.Serializations - sc.lastSerials
		dWaits := waits - sc.lastWaits
		sc.lastCommits, sc.lastAborts, sc.lastSerials, sc.lastWaits =
			agg.Commits, agg.Aborts, agg.Serializations, waits

		// Overload score: the cure cost (aborted work, serialized
		// starts, blocked gate acquisitions) per unit of progress. A
		// window of fewer than minScored commits and cures scores zero, as
		// an idle one does: a tick that lands at the start of a burst sees
		// a few early aborts against a commit or two, which is no
		// evidence of overload.
		var score float64
		if cures := dAborts + dSerials + dWaits; cures > 0 && cures+dCommits >= minScored {
			score = float64(cures) / float64(max(dCommits, 1))
		}
		ew := 0.5*sc.overload() + 0.5*score
		sc.overloadBits.Store(math.Float64bits(ew))

		p := sc.shedProb()
		if ew > c.cfg.ShedKnee || c.cfg.ShedKnee <= 0 {
			p = math.Min(c.cfg.ShedMax, p+0.1)
		} else {
			p *= 0.5
			if p < 0.01 {
				p = 0
			}
		}
		sc.shedBits.Store(math.Float64bits(p))
		if p > maxProb {
			maxProb = p
		}
	}
	c.maxShedBits.Store(math.Float64bits(maxProb))
}

// shedLowPriority decides whether to shed a low-priority request (a batch)
// right now. Batches shed at twice the worst shard's write-shed
// probability: they are the heaviest admissions (many keys, one long transaction)
// and the cheapest to push back on — single-key traffic keeps flowing on
// the same shards.
func (c *controller) shedLowPriority() bool {
	p := math.Float64frombits(c.maxShedBits.Load())
	if p <= 0 {
		return false
	}
	if c.shards[0].rand01() < math.Min(1, 2*p) {
		c.shedBatches.Add(1)
		return true
	}
	return false
}

// close stops the controller goroutine (idempotent).
func (c *controller) close() {
	c.once.Do(func() {
		close(c.stop)
		<-c.done
	})
}
