// Package predict implements the access-set prediction techniques of the
// Shrink scheduler (Section 3 of the paper):
//
//   - Read-set prediction by temporal locality: a per-thread window of Bloom
//     filters remembers the read sets of the last locality_window
//     transactions. When the current transaction reads an address that was
//     also read by enough recent transactions (weighted by per-age confidence
//     values c_i), the address enters the predicted read set of the thread's
//     next transaction.
//   - Write-set prediction by repetition: when a transaction aborts, its
//     write set becomes the predicted write set of the restarted transaction.
//
// The package also instruments prediction accuracy, which regenerates
// Figure 3 of the paper.
package predict

import (
	"github.com/shrink-tm/shrink/internal/bloom"
	"github.com/shrink-tm/shrink/internal/stm"
)

// Config carries the prediction parameters. The zero value is not usable;
// use DefaultConfig (the paper's values).
type Config struct {
	// LocalityWindow is the number of past transactions whose read sets
	// are remembered (the paper uses 4: the current filter plus three
	// historical ones).
	LocalityWindow int
	// ConfidenceThreshold is the minimum accumulated confidence for an
	// address to enter the predicted read set (the paper uses 3).
	ConfidenceThreshold int
	// Confidence holds the per-age confidence weights c_1..c_{w-1}
	// (the paper uses {3, 2, 1}).
	Confidence []int
	// FilterBits and FilterHashes fix the Bloom filter geometry.
	FilterBits   int
	FilterHashes int
	// TrackAccuracy enables the per-read bookkeeping behind
	// AccuracyStats (Figure 3). It costs a hash-map insert on every
	// transactional read, so performance runs leave it off.
	TrackAccuracy bool
}

// DefaultConfig returns the parameter values used in the paper's evaluation:
// locality_window = 4, confidence_threshold = 3, c = {3, 2, 1}.
func DefaultConfig() Config {
	return Config{
		LocalityWindow:      4,
		ConfidenceThreshold: 3,
		Confidence:          []int{3, 2, 1},
		FilterBits:          4096,
		FilterHashes:        2,
	}
}

// Predictor is the per-thread access-set predictor. It is owned by a single
// thread; only PredictedConflict's peek at orec words touches shared state,
// and that is lock-free by construction.
//
// Two generations of the read prediction exist at any time: activeRead is
// the prediction in force for the currently running transaction (built by
// its predecessor), and buildRead is the prediction under construction for
// the successor. They swap at commit; an abort keeps both, because the
// restart is the same logical transaction.
//
// All predictor state is recycled across the commit/abort cycle — the two
// read maps are cleared and swapped rather than reallocated, the write
// prediction reuses its backing array, and the accuracy scratch map is
// retained — so the predictor contributes zero steady-state allocations to
// the commit lifecycle.
type Predictor struct {
	cfg    Config
	window *bloom.Window

	activeRead  map[*stm.Var]struct{}
	buildRead   map[*stm.Var]struct{}
	activeWrite []*stm.Var
	curRead     map[*stm.Var]struct{} // reads of the running transaction, for accuracy
	scoreSet    map[*stm.Var]struct{} // scratch for scoreWritePrediction, reused

	stats AccuracyStats
}

// AccuracyStats accumulates prediction-accuracy counters for Figure 3.
type AccuracyStats struct {
	// ReadPredicted counts addresses that were in the predicted read set
	// when a transaction started; ReadHits counts how many of those the
	// transaction actually read.
	ReadPredicted uint64
	ReadHits      uint64
	// WritePredicted / WriteHits: same for the predicted write set.
	WritePredicted uint64
	WriteHits      uint64
}

// ReadAccuracy returns the hit ratio of read predictions (1 if none made).
func (s AccuracyStats) ReadAccuracy() float64 {
	if s.ReadPredicted == 0 {
		return 1
	}
	return float64(s.ReadHits) / float64(s.ReadPredicted)
}

// WriteAccuracy returns the hit ratio of write predictions (1 if none made).
func (s AccuracyStats) WriteAccuracy() float64 {
	if s.WritePredicted == 0 {
		return 1
	}
	return float64(s.WriteHits) / float64(s.WritePredicted)
}

// Merge adds other's counters into s.
func (s *AccuracyStats) Merge(other AccuracyStats) {
	s.ReadPredicted += other.ReadPredicted
	s.ReadHits += other.ReadHits
	s.WritePredicted += other.WritePredicted
	s.WriteHits += other.WriteHits
}

// New returns a predictor with the given configuration.
func New(cfg Config) *Predictor {
	if cfg.LocalityWindow < 1 {
		cfg.LocalityWindow = 1
	}
	return &Predictor{
		cfg:        cfg,
		window:     bloom.NewWindow(cfg.LocalityWindow, cfg.FilterBits, cfg.FilterHashes),
		activeRead: make(map[*stm.Var]struct{}),
		buildRead:  make(map[*stm.Var]struct{}),
		curRead:    make(map[*stm.Var]struct{}),
	}
}

// OnRead records a transactional read of v, implementing the "On
// transactional read" step of Algorithm 1: the address is added to the
// current Bloom filter, its confidence across the historical filters is
// accumulated, and if it crosses the threshold the address enters the
// predicted read set being built for the thread's next transaction.
func (p *Predictor) OnRead(v *stm.Var) {
	if p.cfg.TrackAccuracy {
		p.curRead[v] = struct{}{}
	}
	id := v.ID()
	cur := p.window.At(0)
	if cur.Contains(id) {
		return
	}
	cur.Add(id)
	confidence := 0
	for i := 1; i < p.window.Len(); i++ {
		if p.window.At(i).Contains(id) {
			ci := 0
			if i-1 < len(p.cfg.Confidence) {
				ci = p.cfg.Confidence[i-1]
			}
			confidence += ci
		}
	}
	if confidence >= p.cfg.ConfidenceThreshold {
		p.buildRead[v] = struct{}{}
	}
}

// OnCommit finishes the committed transaction's prediction cycle: the
// prediction that was in force is scored against the actual read set, the
// newly built prediction becomes active, the write prediction is retired,
// and the Bloom filter window rotates. writeSet is the engine's zero-copy
// view; it is only inspected here, never retained.
func (p *Predictor) OnCommit(writeSet stm.WriteSet) {
	if p.cfg.TrackAccuracy {
		for v := range p.activeRead {
			p.stats.ReadPredicted++
			if _, ok := p.curRead[v]; ok {
				p.stats.ReadHits++
			}
		}
		p.scoreWritePrediction(writeSet)
		clear(p.curRead)
	}
	p.activeWrite = p.activeWrite[:0]

	clear(p.activeRead)
	p.activeRead, p.buildRead = p.buildRead, p.activeRead
	p.window.Rotate()
}

// OnAbort installs the aborted transaction's write set as the predicted
// write set of the restart ("when a transaction repeats, its write set
// mimics the write set of the immediately previous aborted transaction").
// The Bloom window is not rotated and the read predictions are kept: the
// restart is the same logical transaction. The view's addresses are copied
// into the reused activeWrite buffer, because the prediction must outlive
// the hook call that carries the view.
func (p *Predictor) OnAbort(writeSet stm.WriteSet) {
	if p.cfg.TrackAccuracy {
		p.scoreWritePrediction(writeSet)
	}
	p.activeWrite = p.activeWrite[:0]
	for i := 0; i < writeSet.Len(); i++ {
		p.activeWrite = append(p.activeWrite, writeSet.At(i))
	}
}

func (p *Predictor) scoreWritePrediction(actual stm.WriteSet) {
	if len(p.activeWrite) == 0 {
		return
	}
	if p.scoreSet == nil {
		p.scoreSet = make(map[*stm.Var]struct{}, actual.Len())
	} else {
		clear(p.scoreSet)
	}
	for i := 0; i < actual.Len(); i++ {
		p.scoreSet[actual.At(i)] = struct{}{}
	}
	for _, v := range p.activeWrite {
		p.stats.WritePredicted++
		if _, ok := p.scoreSet[v]; ok {
			p.stats.WriteHits++
		}
	}
}

// PredictedConflict reports whether any address in the predicted read or
// write set is currently write-locked by another thread: the condition under
// which Shrink serializes the starting transaction. checkReads gates the
// read-set check (serialization affinity); the write-set check always runs,
// as in Algorithm 1.
func (p *Predictor) PredictedConflict(threadID int, checkReads bool) bool {
	if checkReads {
		for v := range p.activeRead {
			if v.LockedByOther(threadID) {
				return true
			}
		}
	}
	for _, v := range p.activeWrite {
		if v.LockedByOther(threadID) {
			return true
		}
	}
	return false
}

// PredictedReadSetSize returns the active predicted read set cardinality.
func (p *Predictor) PredictedReadSetSize() int { return len(p.activeRead) }

// PredictedWriteSetSize returns the active predicted write set cardinality.
func (p *Predictor) PredictedWriteSetSize() int { return len(p.activeWrite) }

// Stats returns the accumulated accuracy counters.
func (p *Predictor) Stats() AccuracyStats { return p.stats }
