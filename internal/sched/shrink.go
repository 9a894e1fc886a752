// Package sched implements the transaction schedulers evaluated in the
// paper: Shrink (the contribution — prediction-based conflict prevention
// with serialization affinity), ATS (Yoo & Lee's adaptive transaction
// scheduling), and Pool (serialize every thread that faces contention).
// All of them attach to either STM engine through the stm.Scheduler hooks,
// and each counts the attempts it serializes in the thread's
// stm.ThreadCtx.Serializations, so TM.Stats reports them for any scheduler.
package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/shrink-tm/shrink/internal/predict"
	"github.com/shrink-tm/shrink/internal/stm"
)

// ShrinkConfig carries the Shrink parameters; DefaultShrinkConfig returns
// the values used in the paper's evaluation.
type ShrinkConfig struct {
	// Success is the reward added to the success rate on commit
	// (paper: 1).
	Success float64
	// SuccessThreshold activates prediction and serialization when a
	// thread's success rate falls below it (paper: 0.5).
	SuccessThreshold float64
	// AffinityDenominator is the range of the serialization-affinity coin:
	// the read-set check runs iff rand(1..D) < wait_count (paper: 32).
	AffinityDenominator int
	// Predict configures the per-thread access-set predictor.
	Predict predict.Config
	// DisableWritePrediction turns off write-set prediction (ablation).
	DisableWritePrediction bool
	// DisableAffinity makes the read-set check unconditional once the
	// success rate is low (ablation of serialization affinity).
	DisableAffinity bool
	// EagerPrediction tracks reads in the Bloom-filter window at all
	// times, exactly as Algorithm 1 is written. The default (lazy)
	// activation starts tracking only once a thread's success rate falls
	// below 1.5x the threshold, which removes the per-read overhead from
	// uncontended threads; the serialization behavior under contention is
	// unchanged because prediction only drives decisions below the
	// threshold. Figure 3 instrumentation uses the eager mode.
	EagerPrediction bool
}

// activationFactor widens the success-rate band in which lazy prediction
// keeps tracking reads, so the Bloom history exists before the
// serialization threshold is crossed.
const activationFactor = 1.5

// DefaultShrinkConfig returns the paper's parameter values.
func DefaultShrinkConfig() ShrinkConfig {
	return ShrinkConfig{
		Success:             1,
		SuccessThreshold:    0.5,
		AffinityDenominator: 32,
		Predict:             predict.DefaultConfig(),
	}
}

// Shrink is the prediction-based TM scheduler of Section 3. Per thread it
// tracks a success rate and an access-set predictor; when the success rate
// drops below the threshold it applies serialization affinity and, if an
// address in the predicted read or write set is currently being written by
// another thread, serializes the starting transaction behind a global mutex.
type Shrink struct {
	cfg       ShrinkConfig
	globalMu  sync.Mutex
	waitCount atomic.Int64
}

type shrinkThread struct {
	pred        *predict.Predictor
	rng         *rand.Rand
	succRate    float64
	holdsGlobal bool
}

var _ stm.Scheduler = (*Shrink)(nil)

// NewShrink returns a Shrink scheduler with the given configuration.
func NewShrink(cfg ShrinkConfig) *Shrink {
	if cfg.AffinityDenominator <= 0 {
		cfg.AffinityDenominator = 32
	}
	if cfg.Predict.LocalityWindow == 0 {
		cfg.Predict = predict.DefaultConfig()
	}
	return &Shrink{cfg: cfg}
}

// RegisterThread implements stm.Scheduler.
func (s *Shrink) RegisterThread(t *stm.ThreadCtx) {
	t.SchedState = &shrinkThread{
		pred:     predict.New(s.cfg.Predict),
		rng:      rand.New(rand.NewSource(int64(t.ID)*0x9e3779b9 + 1)),
		succRate: 1,
	}
	t.ReadHook = s.cfg.EagerPrediction
}

// updateReadHook applies the lazy-activation policy after a success-rate
// change.
func (s *Shrink) updateReadHook(t *stm.ThreadCtx, st *shrinkThread) {
	t.ReadHook = s.cfg.EagerPrediction ||
		st.succRate < s.cfg.SuccessThreshold*activationFactor
}

func (s *Shrink) state(t *stm.ThreadCtx) *shrinkThread {
	st, _ := t.SchedState.(*shrinkThread)
	return st
}

// BeforeStart implements stm.Scheduler and follows Algorithm 1's "On
// transactional start": when the thread's success rate is low, draw the
// serialization-affinity coin to decide whether the predicted read set is
// checked, always check the predicted write set, and if a predicted address
// is being written by another thread, wait for the common mutex (serializing
// this transaction behind all running ones).
func (s *Shrink) BeforeStart(t *stm.ThreadCtx, attempt int) {
	st := s.state(t)
	if st == nil {
		return
	}
	if st.holdsGlobal {
		// A retry while already serialized keeps the mutex: the
		// transaction is still the one we decided to serialize.
		return
	}
	if st.succRate < s.cfg.SuccessThreshold {
		checkReads := s.cfg.DisableAffinity
		if !checkReads {
			r := int64(st.rng.Intn(s.cfg.AffinityDenominator) + 1) // 1..D
			checkReads = r < s.waitCount.Load()
		}
		if st.pred.PredictedConflict(t.ID, checkReads) {
			s.waitCount.Add(1)
			s.globalMu.Lock()
			st.holdsGlobal = true
			t.Serializations.Add(1)
		}
	}
}

// AfterRead implements stm.Scheduler: it feeds the read into the predictor's
// Bloom-filter window and confidence accumulation.
func (s *Shrink) AfterRead(t *stm.ThreadCtx, v *stm.Var) {
	if st := s.state(t); st != nil {
		st.pred.OnRead(v)
	}
}

// AfterCommit implements stm.Scheduler: success rate is rewarded
// (succ_rate = (succ_rate + success) / 2), the predictor rotates its window,
// and the serialization mutex is released if held. writeSet is the engine's
// zero-copy view and is not retained past the call.
func (s *Shrink) AfterCommit(t *stm.ThreadCtx, writeSet stm.WriteSet) {
	st := s.state(t)
	if st == nil {
		return
	}
	st.succRate = (st.succRate + s.cfg.Success) / 2
	st.pred.OnCommit(writeSet)
	s.updateReadHook(t, st)
	s.release(st)
}

// AfterAbort implements stm.Scheduler: success rate is halved, the aborted
// write set becomes the predicted write set of the restart (the predictor
// copies it out of the zero-copy view), and the serialization mutex is
// released if held.
func (s *Shrink) AfterAbort(t *stm.ThreadCtx, writeSet stm.WriteSet) {
	st := s.state(t)
	if st == nil {
		return
	}
	st.succRate /= 2
	if s.cfg.DisableWritePrediction {
		st.pred.OnAbort(stm.WriteSet{})
	} else {
		st.pred.OnAbort(writeSet)
	}
	s.updateReadHook(t, st)
	s.release(st)
}

func (s *Shrink) release(st *shrinkThread) {
	if st.holdsGlobal {
		st.holdsGlobal = false
		s.globalMu.Unlock()
		s.waitCount.Add(-1)
	}
}

// Accuracy aggregates the prediction-accuracy counters of all threads
// registered with this scheduler.
func (s *Shrink) Accuracy(threads []*stm.ThreadCtx) predict.AccuracyStats {
	var agg predict.AccuracyStats
	for _, t := range threads {
		if st := s.state(t); st != nil {
			agg.Merge(st.pred.Stats())
		}
	}
	return agg
}
