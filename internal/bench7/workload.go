package bench7

import (
	"math/rand"

	"github.com/shrink-tm/shrink/internal/stm"
)

// Mix is one of the paper's three STMBench7 workload types.
type Mix int

// Workload mixes. The percentages follow STMBench7's definitions: the share
// of read-only operations is 90% (read-dominated), 60% (read-write) or 10%
// (write-dominated); the remaining updates are split between in-place
// updates and structural modifications.
const (
	ReadDominated Mix = iota + 1
	ReadWrite
	WriteDominated
)

// String returns the mix name as used in figure labels.
func (m Mix) String() string {
	switch m {
	case ReadDominated:
		return "read-dominated"
	case ReadWrite:
		return "read-write"
	case WriteDominated:
		return "write-dominated"
	default:
		return "unknown"
	}
}

func (m Mix) readPercent() int {
	switch m {
	case ReadDominated:
		return 90
	case WriteDominated:
		return 10
	default:
		return 60
	}
}

// Workload adapts the benchmark to harness.Workload for a given mix.
type Workload struct {
	Mix    Mix
	Params Params

	bench      *Benchmark
	reads      []Operation
	updates    []Operation
	structural []Operation
}

// NewWorkload returns an STMBench7 workload with the given mix; zero Params
// selects DefaultParams.
func NewWorkload(mix Mix, p Params) *Workload {
	w := &Workload{Mix: mix, Params: p}
	for _, op := range Operations() {
		switch op.Kind {
		case OpRead:
			w.reads = append(w.reads, op)
		case OpUpdate:
			w.updates = append(w.updates, op)
		default:
			w.structural = append(w.structural, op)
		}
	}
	return w
}

// Name implements harness.Workload.
func (w *Workload) Name() string { return "stmbench7/" + w.Mix.String() }

// Setup implements harness.Workload.
func (w *Workload) Setup(th stm.Thread) error {
	w.bench = New(w.Params)
	return w.bench.Build(th)
}

// Op implements harness.Workload: sample an operation according to the mix.
func (w *Workload) Op(th stm.Thread, rng *rand.Rand) error {
	p := rng.Intn(100)
	var pool []Operation
	switch {
	case p < w.Mix.readPercent():
		pool = w.reads
	case p < w.Mix.readPercent()+(100-w.Mix.readPercent())*2/3:
		pool = w.updates
	default:
		pool = w.structural
	}
	op := pool[rng.Intn(len(pool))]
	return op.Run(w.bench, th, rng)
}

// Bench exposes the underlying benchmark (tests).
func (w *Workload) Bench() *Benchmark { return w.bench }
