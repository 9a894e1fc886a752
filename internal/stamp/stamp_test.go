package stamp_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/stamp"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

func TestNamesAndRegistry(t *testing.T) {
	names := stamp.Names()
	if len(names) != 10 {
		t.Fatalf("kernels = %d, want 10", len(names))
	}
	for _, n := range names {
		w, err := stamp.New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if w.Name() != n {
			t.Errorf("kernel %q reports name %q", n, w.Name())
		}
	}
	if _, err := stamp.New("nope"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	stamp.MustNew("nope")
}

// TestEachKernelRunsSequentially drives every kernel single-threaded.
func TestEachKernelRunsSequentially(t *testing.T) {
	for _, name := range stamp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tm := swiss.New(swiss.Options{})
			th := tm.Register("t0")
			w := stamp.MustNew(name)
			if err := w.Setup(th); err != nil {
				t.Fatalf("setup: %v", err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 50; i++ {
				if err := w.Op(th, rng); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if tm.Stats().Commits == 0 {
				t.Fatal("no commits")
			}
		})
	}
}

// TestEachKernelConcurrent drives every kernel with several threads on both
// engines under Shrink, checking liveness.
func TestEachKernelConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	engines := []string{enginecfg.EngineSwiss, enginecfg.EngineTiny}
	for _, engine := range engines {
		for _, name := range stamp.Names() {
			engine, name := engine, name
			t.Run(engine+"/"+name, func(t *testing.T) {
				res, err := harness.Run(harness.Config{
					Engine:    engine,
					Scheduler: enginecfg.SchedShrink,
					Wait:      stm.WaitPreemptive,
					Threads:   4,
					Duration:  40 * time.Millisecond,
				}, func() harness.Workload { return stamp.MustNew(name) })
				if err != nil {
					t.Fatal(err)
				}
				if res.Commits == 0 {
					t.Fatal("no commits")
				}
			})
		}
	}
}

// TestContentionOrdering sanity-checks the high/low contention knobs: with
// several threads, kmeans-high must suffer a higher abort rate than
// kmeans-low, and vacation-high at least as high as vacation-low.
func TestContentionOrdering(t *testing.T) {
	run := func(name string) harness.Result {
		res, err := harness.Run(harness.Config{
			Engine:   enginecfg.EngineSwiss,
			Threads:  6,
			Duration: 80 * time.Millisecond,
			Seed:     42,
		}, func() harness.Workload { return stamp.MustNew(name) })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	kh, kl := run("kmeans-high"), run("kmeans-low")
	// On hosts with one physical CPU both rates can sit near zero; only a
	// clear inversion is a failure.
	if kh.AbortRate+0.02 < kl.AbortRate {
		t.Errorf("kmeans-high abort rate %.3f < kmeans-low %.3f", kh.AbortRate, kl.AbortRate)
	}
	ss := run("ssca2")
	if ss.AbortRate > 0.2 {
		t.Errorf("ssca2 abort rate %.3f unexpectedly high", ss.AbortRate)
	}
}

// TestIntruderOnTiny: the intruder kernel sets up and runs 100 operations
// on one thread of the tiny engine, each returning without an error. One
// thread means no contention: this is a smoke test of the kernel on that
// engine, not of its behaviour under conflicts.
func TestIntruderOnTiny(t *testing.T) {
	tm := tiny.New(tiny.Options{Wait: stm.WaitPreemptive})
	th := tm.Register("t0")
	w := stamp.MustNew("intruder")
	if err := w.Setup(th); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if err := w.Op(th, rng); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}
