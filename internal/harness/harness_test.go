package harness_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/stm"
)

// counterWorkload is a minimal contended workload for harness tests.
type counterWorkload struct {
	v *stm.TVar[int]
}

func (c *counterWorkload) Name() string { return "counter" }

func (c *counterWorkload) Setup(th stm.Thread) error {
	c.v = stm.NewT(0)
	return nil
}

func (c *counterWorkload) Op(th stm.Thread, rng *rand.Rand) error {
	return th.Atomically(func(tx stm.Tx) error {
		n, err := stm.ReadT(tx, c.v)
		if err != nil {
			return err
		}
		return stm.WriteT(tx, c.v, n+1)
	})
}

func TestRunBasic(t *testing.T) {
	res, err := harness.Run(harness.Config{
		Engine:    enginecfg.EngineSwiss,
		Scheduler: enginecfg.SchedNone,
		Threads:   2,
		Duration:  40 * time.Millisecond,
		Cores:     2,
	}, func() harness.Workload { return &counterWorkload{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || res.Throughput <= 0 {
		t.Fatalf("no progress: %+v", res)
	}
	if res.Workload != "counter" {
		t.Fatalf("workload = %q", res.Workload)
	}
	if res.Elapsed < 40*time.Millisecond {
		t.Fatalf("elapsed = %v too short", res.Elapsed)
	}
}

func TestRunAllEnginesAndSchedulers(t *testing.T) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		for _, scheduler := range []string{
			enginecfg.SchedNone, enginecfg.SchedShrink, enginecfg.SchedATS, enginecfg.SchedPool,
		} {
			res, err := harness.Run(harness.Config{
				Engine:    engine,
				Scheduler: scheduler,
				Wait:      stm.WaitPreemptive,
				Threads:   3,
				Duration:  30 * time.Millisecond,
			}, func() harness.Workload { return &counterWorkload{} })
			if err != nil {
				t.Fatalf("%s/%s: %v", engine, scheduler, err)
			}
			if res.Commits == 0 {
				t.Errorf("%s/%s: no commits", engine, scheduler)
			}
		}
	}
}

func TestRunRejectsUnknownConfig(t *testing.T) {
	if _, err := harness.Run(harness.Config{Engine: "bogus"},
		func() harness.Workload { return &counterWorkload{} }); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := harness.Run(harness.Config{Scheduler: "bogus"},
		func() harness.Workload { return &counterWorkload{} }); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestShrinkResultCarriesAccuracy(t *testing.T) {
	res, err := harness.Run(harness.Config{
		Engine:    enginecfg.EngineSwiss,
		Scheduler: enginecfg.SchedShrink,
		Threads:   4,
		Duration:  50 * time.Millisecond,
	}, func() harness.Workload { return &counterWorkload{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadAccuracy < 0 || res.ReadAccuracy > 1 || res.WriteAccuracy < 0 || res.WriteAccuracy > 1 {
		t.Fatalf("accuracy out of range: %+v", res)
	}
}

// abortOnceWorkload makes every operation abort exactly once: the worker's
// transaction reads v, the setup thread (idle after Setup, and driven only
// from inside the single worker's transaction) commits a write to v, and
// the worker's own write to v then fails validation.
type abortOnceWorkload struct {
	v     *stm.TVar[int]
	other stm.Thread
}

func (w *abortOnceWorkload) Name() string { return "abort-once" }

func (w *abortOnceWorkload) Setup(th stm.Thread) error {
	w.v, w.other = stm.NewT(0), th
	return nil
}

func (w *abortOnceWorkload) Op(th stm.Thread, rng *rand.Rand) error {
	attempts := 0
	return th.Atomically(func(tx stm.Tx) error {
		attempts++
		n, err := stm.ReadT(tx, w.v)
		if err != nil {
			return err
		}
		if attempts == 1 {
			if err := w.other.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, w.v, -1) }); err != nil {
				return err
			}
		}
		return stm.WriteT(tx, w.v, n+1)
	})
}

// TestSerializationsForEveryScheduler checks that Result.Serializations is
// the schedulers' own count, for every scheduler, net of the setup thread.
// Every operation aborts once and retries: Pool serializes every retry,
// ATS serializes once its contention intensity settles above the
// threshold, and the base system serializes nothing.
func TestSerializationsForEveryScheduler(t *testing.T) {
	for _, scheduler := range []string{enginecfg.SchedNone, enginecfg.SchedShrink, enginecfg.SchedATS, enginecfg.SchedPool} {
		res, err := harness.Run(harness.Config{
			Engine:    enginecfg.EngineSwiss,
			Scheduler: scheduler,
			Threads:   1,
			Duration:  20 * time.Millisecond,
		}, func() harness.Workload { return &abortOnceWorkload{} })
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 || res.Aborts != res.Ops {
			t.Fatalf("%s: ops = %d, aborts = %d; want one abort per op", scheduler, res.Ops, res.Aborts)
		}
		switch scheduler {
		case enginecfg.SchedNone:
			if res.Serializations != 0 {
				t.Errorf("none: serializations = %d, want 0", res.Serializations)
			}
		case enginecfg.SchedPool:
			if res.Serializations != res.Ops {
				t.Errorf("pool: serializations = %d, want one per op (%d)", res.Serializations, res.Ops)
			}
		case enginecfg.SchedATS:
			if res.Serializations == 0 || res.Serializations > res.Ops {
				t.Errorf("ats: serializations = %d, want in [1, %d]", res.Serializations, res.Ops)
			}
		}
	}
}

func TestSpeedup(t *testing.T) {
	a := harness.Result{Throughput: 200}
	b := harness.Result{Throughput: 100}
	if got := harness.Speedup(a, b); got != 2 {
		t.Fatalf("speedup = %f", got)
	}
	if got := harness.Speedup(a, harness.Result{}); got != 0 {
		t.Fatalf("speedup vs zero = %f", got)
	}
}

func TestTraceCollection(t *testing.T) {
	res, err := harness.Run(harness.Config{
		Engine:   enginecfg.EngineSwiss,
		Threads:  3,
		Duration: 40 * time.Millisecond,
		Trace:    true,
	}, func() harness.Workload { return &counterWorkload{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.OpLatency == nil || res.Retries == nil {
		t.Fatal("trace results missing")
	}
	if res.OpLatency.Count() == 0 {
		t.Fatal("no latency observations")
	}
	if res.Retries.Transactions() == 0 {
		t.Fatal("no retry observations")
	}
	// Without tracing, the fields stay nil (no overhead).
	res, err = harness.Run(harness.Config{
		Engine:   enginecfg.EngineSwiss,
		Threads:  1,
		Duration: 20 * time.Millisecond,
	}, func() harness.Workload { return &counterWorkload{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.OpLatency != nil || res.Retries != nil {
		t.Fatal("trace collected without being requested")
	}
}

func TestRunMedian(t *testing.T) {
	res, err := harness.RunMedian(harness.Config{
		Engine:   enginecfg.EngineSwiss,
		Threads:  2,
		Duration: 15 * time.Millisecond,
	}, 3, func() harness.Workload { return &counterWorkload{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("median run made no progress")
	}
	// reps <= 1 falls back to a single run.
	res, err = harness.RunMedian(harness.Config{
		Engine:   enginecfg.EngineSwiss,
		Threads:  1,
		Duration: 15 * time.Millisecond,
	}, 1, func() harness.Workload { return &counterWorkload{} })
	if err != nil || res.Commits == 0 {
		t.Fatalf("single-rep fallback: %v %d", err, res.Commits)
	}
}
