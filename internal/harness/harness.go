// Package harness runs the paper's throughput experiments: it builds a TM
// engine with a chosen scheduler, spawns worker goroutines ("threads"),
// drives a workload for a fixed duration, and reports committed-transaction
// throughput, abort rates, serialization counts and (for Shrink) prediction
// accuracy — the series behind Figures 3 and 5–11.
//
// The paper's machine had 8 cores; this harness emulates "cores" with
// GOMAXPROCS, so a run is overloaded when Threads exceeds Cores. On hosts
// with fewer physical CPUs the absolute throughput shrinks but the
// contention dynamics (conflicts, aborts, serialization) are logical and
// preserved.
package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/trace"
)

// Workload is one benchmark: shared state plus a per-thread operation mix.
type Workload interface {
	Name() string
	// Setup populates the shared state using the given thread.
	Setup(th stm.Thread) error
	// Op runs one application-level operation (one or more transactions)
	// on the given thread. rng is private to the calling worker.
	Op(th stm.Thread, rng *rand.Rand) error
}

// Config describes one experiment cell.
type Config struct {
	Engine    string
	Scheduler string
	Wait      stm.WaitPolicy
	Threads   int
	Duration  time.Duration
	// Cores emulates the paper's 8-core machine via GOMAXPROCS; 0 keeps
	// the current setting.
	Cores int
	// Seed makes worker RNG streams reproducible.
	Seed int64
	// ShrinkConfig overrides the Shrink parameters (nil = paper values).
	ShrinkConfig *sched.ShrinkConfig
	// TrackAccuracy turns on prediction-accuracy instrumentation for
	// Shrink runs (Figure 3). It adds per-read bookkeeping, so the
	// throughput figures leave it off.
	TrackAccuracy bool
	// Trace collects per-operation latency and retry distributions into
	// the Result (two clock reads per operation when enabled).
	Trace bool
}

// Result is one measured cell.
type Result struct {
	Config
	Workload   string
	Elapsed    time.Duration
	Commits    uint64
	Aborts     uint64
	UserAborts uint64
	Ops        uint64
	// Throughput is committed transactions per second.
	Throughput float64
	// AbortRate is aborts / (commits + aborts).
	AbortRate float64
	// Serializations counts the attempts the scheduler started serialized.
	Serializations uint64
	// Prediction accuracy (Shrink runs only).
	ReadAccuracy  float64
	WriteAccuracy float64
	// OpLatency and Retries are populated when Config.Trace is set.
	OpLatency *trace.Histogram
	Retries   *trace.RetryDist
}

// Run executes one experiment cell: setup, then Threads workers running ops
// until the duration elapses.
func Run(cfg Config, newWorkload func() Workload) (Result, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.Cores > 0 {
		prev := runtime.GOMAXPROCS(cfg.Cores)
		defer runtime.GOMAXPROCS(prev)
	}
	tm, shrink, err := enginecfg.Build(enginecfg.Spec{
		Engine:        cfg.Engine,
		Scheduler:     cfg.Scheduler,
		Wait:          cfg.Wait,
		Shrink:        cfg.ShrinkConfig,
		TrackAccuracy: cfg.TrackAccuracy,
	})
	if err != nil {
		return Result{}, err
	}
	w := newWorkload()
	setupThread := tm.Register("setup")
	if err := w.Setup(setupThread); err != nil {
		return Result{}, fmt.Errorf("setup %s: %w", w.Name(), err)
	}
	setupStats := stm.AggregateStats(tm.Threads())

	threads := make([]stm.Thread, cfg.Threads)
	for i := range threads {
		threads[i] = tm.Register(fmt.Sprintf("worker-%d", i))
	}

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		ops     = make([]uint64, cfg.Threads)
		latency *trace.Histogram
		retries *trace.RetryDist
	)
	if cfg.Trace {
		latency = &trace.Histogram{}
		retries = &trace.RetryDist{}
	}
	start := time.Now()
	for i := 0; i < cfg.Threads; i++ {
		i := i
		th := threads[i]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var opStart time.Time
				var abortsBefore uint64
				if cfg.Trace {
					opStart = time.Now()
					abortsBefore = th.Ctx().Aborts.Load()
				}
				if err := w.Op(th, rng); err != nil {
					// Workload errors are programming errors in
					// this repo; surface them loudly.
					panic(fmt.Sprintf("workload %s op: %v", w.Name(), err))
				}
				if cfg.Trace {
					latency.ObserveDuration(time.Since(opStart))
					retries.Record(int(th.Ctx().Aborts.Load() - abortsBefore))
				}
				ops[i]++
			}
		}()
	}
	timer := time.NewTimer(cfg.Duration)
	<-timer.C
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	agg := stm.AggregateStats(tm.Threads())
	res := Result{
		Config:         cfg,
		Workload:       w.Name(),
		Elapsed:        elapsed,
		Commits:        agg.Commits - setupStats.Commits,
		Aborts:         agg.Aborts - setupStats.Aborts,
		UserAborts:     agg.UserAborts - setupStats.UserAborts,
		Serializations: agg.Serializations - setupStats.Serializations,
	}
	for _, n := range ops {
		res.Ops += n
	}
	res.Throughput = float64(res.Commits) / elapsed.Seconds()
	if total := res.Commits + res.Aborts; total > 0 {
		res.AbortRate = float64(res.Aborts) / float64(total)
	}
	if shrink != nil {
		acc := shrink.Accuracy(tm.Threads())
		res.ReadAccuracy = acc.ReadAccuracy()
		res.WriteAccuracy = acc.WriteAccuracy()
	}
	res.OpLatency = latency
	res.Retries = retries
	return res, nil
}

// RunMedian runs the cell reps times and returns the run with the median
// throughput, damping the scheduling noise of short-duration cells (the
// paper averaged 20 runs per point).
func RunMedian(cfg Config, reps int, newWorkload func() Workload) (Result, error) {
	if reps <= 1 {
		return Run(cfg, newWorkload)
	}
	results := make([]Result, 0, reps)
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*104729
		r, err := Run(c, newWorkload)
		if err != nil {
			return Result{}, err
		}
		results = append(results, r)
	}
	sort.Slice(results, func(a, b int) bool {
		return results[a].Throughput < results[b].Throughput
	})
	return results[len(results)/2], nil
}

// Speedup returns with.Throughput / without.Throughput, the metric of the
// STAMP figures (reported there as "speedup - 1").
func Speedup(with, without Result) float64 {
	if without.Throughput == 0 {
		return 0
	}
	return with.Throughput / without.Throughput
}
