package tkv

import (
	"errors"
	"math"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/predict"
)

// ErrBackpressure is returned when the admission layer rejects a request
// under overload (shed by the controller, or wounded out of the batch
// admission queue). It is explicit backpressure, not a failure: nothing was
// written, and the client should back off and retry. The wire protocol maps
// it to StatusBackpressure.
var ErrBackpressure = errors.New("tkv: overloaded, request shed")

// ShedLowPriority reports whether a low-priority request (a batch) arriving
// right now should be shed, charging the store's shed counters when it says
// yes. Serving layers call it before decoding a batch request so rejection
// costs nothing — no parse, no op structs — on exactly the path that is
// hottest under overload. Always false when admission is disabled.
func (st *Store) ShedLowPriority() bool {
	return st.ctrl != nil && st.ctrl.shedLowPriority()
}

// AdmitConfig parameterizes the contention-aware admission layer: the
// per-shard overload controller, the wound-wait batch admission queue and
// the conflict-predictor routing. The stripe tables are not part of it:
// their size is Config.LockStripes, fixed at Open. The zero value is not
// usable; start from DefaultAdmitConfig. Enabled by setting
// Config.Admission; when nil the store behaves exactly as without the
// layer (no controller goroutine, zero per-op cost).
type AdmitConfig struct {
	// Tick is the controller's sampling period (default 100ms). Each tick
	// the controller re-reads every shard's commit/abort, scheduler
	// serialization and stripe-wait counters, updates the overload score
	// and shed probability, and rotates the conflict predictor's window.
	Tick time.Duration
	// ShedKnee is the overload score past which a shard starts shedding
	// writes. The score is the shard's cure cost per unit of progress:
	// (aborts + scheduler serializations + stripe waits) / commits over
	// the last tick, EWMA-smoothed. Below the knee the shed probability
	// decays to zero; above it, it ramps toward ShedMax. A knee <= 0
	// means "always past the knee" — the shard sheds at ShedMax
	// unconditionally, which exists for tests and operational drills, not
	// for serving.
	ShedKnee float64
	// ShedMax caps the shed probability (default 0.8): even fully
	// overloaded, 1-ShedMax of write traffic is admitted so the
	// controller keeps observing real progress.
	ShedMax float64
	// MaxLargeBatches bounds the large cross-shard batches holding
	// stripes concurrently (default 2); further ones wait in the
	// admission queue.
	MaxLargeBatches int
	// LargeBatchStripes is the stripe-count threshold past which a
	// cross-shard batch is "large" and must pass the admission queue
	// (default 16).
	LargeBatchStripes int
	// MaxQueuedBatches bounds the admission queue (default 8). When a
	// new batch would overflow it, the YOUNGEST waiter is wounded —
	// rejected with ErrBackpressure before planning anything — so old
	// batches always make progress and the queue cannot collapse into
	// convoy.
	MaxQueuedBatches int
	// PredictorRouting routes single-key writes whose key the conflict
	// predictor flags as hot through the same admission queue, so
	// likely-conflicting writes serialize cheaply up front instead of
	// racing and aborting in the engine.
	PredictorRouting bool
	// Predict overrides the key predictor's parameters; zero uses
	// predict.DefaultConfig (the paper's locality-window values).
	Predict predict.Config
}

// DefaultAdmitConfig returns the admission defaults described on the
// fields.
func DefaultAdmitConfig() AdmitConfig {
	return AdmitConfig{
		Tick:              100 * time.Millisecond,
		ShedKnee:          1.5,
		ShedMax:           0.8,
		MaxLargeBatches:   2,
		LargeBatchStripes: 16,
		MaxQueuedBatches:  8,
		PredictorRouting:  true,
	}
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
	if c.MaxLargeBatches <= 0 {
		c.MaxLargeBatches = d.MaxLargeBatches
	}
	if c.LargeBatchStripes <= 0 {
		c.LargeBatchStripes = d.LargeBatchStripes
	}
	if c.MaxQueuedBatches <= 0 {
		c.MaxQueuedBatches = d.MaxQueuedBatches
	}
	if c.Predict.LocalityWindow == 0 {
		c.Predict = predict.DefaultConfig()
	}
	return c
}

// waiter is one queued admission request. Its channel receives exactly one
// value: true when a slot is granted, false when the waiter is wounded.
type waiter struct {
	age uint64
	ch  chan bool
}

// admitQueue is the wound-wait admission queue for stripe-heavy work: at
// most maxActive holders run at once, waiters are ordered by age (arrival
// sequence; lower is older), slots are granted oldest-first, and when the
// queue overflows the youngest waiter is wounded — rejected immediately
// with ErrBackpressure — instead of anyone blocking indefinitely. Age-based
// priority is what makes it wound-wait rather than a plain semaphore: an
// old batch can never be starved by a stream of young ones, and under
// saturation it is precisely the young (cheapest to retry, least sunk
// work) that are turned away before they plan or hold anything.
type admitQueue struct {
	mu      sync.Mutex
	active  int
	waiters []*waiter // sorted by age ascending (oldest first)

	maxActive int
	maxWait   int

	nextAge  counter
	admitted counter
	wounded  counter
	waited   counter
}

func newAdmitQueue(maxActive, maxWait int) *admitQueue {
	return &admitQueue{maxActive: maxActive, maxWait: maxWait}
}

// acquire obtains an admission slot, blocking in age order when all slots
// are busy. It returns ErrBackpressure when the caller (or a younger
// waiter, freeing this caller's place) is wounded off an overflowing
// queue. Lock order: the queue is acquired before any keylock gate or
// stripe and released after them, and holders never re-enter the queue, so
// it extends the store's global lock order at the front.
func (q *admitQueue) acquire() error {
	age := q.nextAge.Add(1)
	q.mu.Lock()
	if q.active < q.maxActive && len(q.waiters) == 0 {
		q.active++
		q.mu.Unlock()
		q.admitted.Add(1)
		return nil
	}
	w := &waiter{age: age, ch: make(chan bool, 1)}
	// Insert in age order (arrival order makes append almost always
	// right; the scan is over a bounded, small queue).
	i := len(q.waiters)
	for i > 0 && q.waiters[i-1].age > age {
		i--
	}
	q.waiters = append(q.waiters, nil)
	copy(q.waiters[i+1:], q.waiters[i:])
	q.waiters[i] = w
	if len(q.waiters) > q.maxWait {
		y := q.waiters[len(q.waiters)-1]
		q.waiters[len(q.waiters)-1] = nil
		q.waiters = q.waiters[:len(q.waiters)-1]
		y.ch <- false
	}
	q.mu.Unlock()
	q.waited.Add(1)
	if !<-w.ch {
		q.wounded.Add(1)
		return ErrBackpressure
	}
	q.admitted.Add(1)
	return nil
}

// release frees a slot and grants it to the oldest waiter, if any.
func (q *admitQueue) release() {
	q.mu.Lock()
	q.active--
	for q.active < q.maxActive && len(q.waiters) > 0 {
		w := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters[len(q.waiters)-1] = nil
		q.waiters = q.waiters[:len(q.waiters)-1]
		q.active++
		w.ch <- true
	}
	q.mu.Unlock()
}

// depth reports the current waiter count.
func (q *admitQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiters)
}

// shardCtl is one shard's admission state: the shed probability and
// overload score the controller maintains, the conflict predictor fed by
// the shard's write paths, and the counters the stats surface reports. The
// hot read path touches only shedBits (one atomic load per write when the
// shard is healthy).
type shardCtl struct {
	q       *admitQueue
	hot     *predict.KeyPredictor
	routing bool

	shedBits     counter // math.Float64bits of the shed probability
	overloadBits counter // math.Float64bits of the EWMA overload score
	rngState     counter // per-shard shed coin state (splitmix64 stream)

	shed      counter // writes rejected with ErrBackpressure by this shard
	routed    counter // writes routed through the admission queue
	conflicts counter // conflict events fed to the predictor

	// Controller-goroutine-only: the previous tick's counter snapshot.
	lastCommits, lastAborts, lastSerials, lastWaits uint64
}

// rand01 draws from a per-shard splitmix64 stream in [0, 1). Atomic
// increment keeps concurrent writers from sharing draws without a lock.
func (c *shardCtl) rand01() float64 {
	x := c.rngState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// shedProb returns the shard's current shed probability.
func (c *shardCtl) shedProb() float64 { return math.Float64frombits(c.shedBits.Load()) }

// overload returns the shard's current EWMA overload score.
func (c *shardCtl) overload() float64 { return math.Float64frombits(c.overloadBits.Load()) }

// admitWrite gates one single-key write: shed when the shard is past its
// knee, route predicted-conflicting keys through the admission queue. The
// returned bool reports a held queue slot the caller must release after
// the operation. The healthy-shard fast path is one atomic load (plus the
// predictor probe when routing is on) and allocates nothing.
func (c *shardCtl) admitWrite(key uint64) (routed bool, err error) {
	if p := c.shedProb(); p > 0 && c.rand01() < p {
		c.shed.Add(1)
		return false, ErrBackpressure
	}
	if c.routing && c.hot.Hot(key) {
		if err := c.q.acquire(); err != nil {
			c.shed.Add(1)
			return false, err
		}
		c.routed.Add(1)
		return true, nil
	}
	return false, nil
}

// noteConflict feeds n conflict events on key into the predictor.
func (c *shardCtl) noteConflict(key uint64, n uint64) {
	c.conflicts.Add(n)
	c.hot.OnConflict(key)
}

// controller closes the loop from the counters the store already emits to
// admission decisions: a goroutine samples every shard each Tick, scores
// overload as cure cost per commit, sets the per-shard shed probability
// (additive ramp above the knee, multiplicative decay below — the same
// AIMD shape TCP uses, for the same reason: probe gently, back off hard),
// and rotates the conflict predictor's window.
type controller struct {
	st  *Store
	cfg AdmitConfig
	q   *admitQueue

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
		q:      newAdmitQueue(cfg.MaxLargeBatches, cfg.MaxQueuedBatches),
		shards: make([]shardCtl, len(st.shards)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range c.shards {
		sc := &c.shards[i]
		sc.q = c.q
		sc.routing = cfg.PredictorRouting
		sc.hot = predict.NewKeyPredictor(cfg.Predict)
		sc.rngState.Store(uint64(i)*0x9e3779b97f4a7c15 + 1)
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

// tick samples every shard and updates its admission state.
func (c *controller) tick() {
	var maxProb float64
	for i, s := range c.st.shards {
		sc := &c.shards[i]
		agg := s.tm.Stats()
		shared, excl := s.locks.Waits()
		serials := s.sched.Serializations()
		waits := shared + excl

		dCommits := agg.Commits - sc.lastCommits
		dAborts := agg.Aborts - sc.lastAborts
		dSerials := serials - sc.lastSerials
		dWaits := waits - sc.lastWaits
		sc.lastCommits, sc.lastAborts, sc.lastSerials, sc.lastWaits =
			agg.Commits, agg.Aborts, serials, waits

		// Overload score: the cure cost (aborted work, serialized
		// starts, blocked stripe acquisitions) per unit of progress.
		// Idle shards (no commits, no cures) score zero.
		var score float64
		if cures := dAborts + dSerials + dWaits; cures > 0 {
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
		sc.hot.Rotate()
	}
	c.maxShedBits.Store(math.Float64bits(maxProb))
}

// shedLowPriority decides whether to shed a low-priority request (a batch)
// right now. Batches shed at twice the worst shard's write-shed
// probability: they are the heaviest admissions (many stripes, two phases)
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

// close stops the controller goroutine (idempotent) and wakes nothing else:
// queued admissions drain normally.
func (c *controller) close() {
	c.once.Do(func() {
		close(c.stop)
		<-c.done
	})
}
