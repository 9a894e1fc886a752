// Root benchmarks: Section 2's theorems (the competitive ratio the
// simulator measures on each lower-bound family), ablations of Shrink's
// design choices ("tx/s") and the engines' per-transaction costs. The
// paper's figures are BenchmarkFigures in cmd/figures (EXPERIMENTS.md's
// figure index).
package shrink

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/bench7"
	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/microbench"
	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/schedsim"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
	"github.com/shrink-tm/shrink/internal/stmds"
)

const benchDur = 30 * time.Millisecond

// measure runs one harness cell per benchmark iteration and reports the
// mean committed-transaction throughput.
func measure(b *testing.B, cfg harness.Config, w func() harness.Workload) harness.Result {
	b.Helper()
	var last harness.Result
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Throughput
		last = res
	}
	b.ReportMetric(total/float64(b.N), "tx/s")
	b.ReportMetric(last.AbortRate, "abortRate")
	return last
}

// --- E1: Theorem 1 — Serializer and ATS are O(n)-competitive (Fig. 2) ---

func BenchmarkTheorem1Serializer(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ins := schedsim.SerializerLowerBound(32)
		res := schedsim.SimulateSerializer(ins)
		opt, _ := schedsim.OptimalMakespan(ins)
		ratio = res.Ratio(opt)
	}
	b.ReportMetric(ratio, "competitiveRatio")
}

func BenchmarkTheorem1ATS(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ins := schedsim.ATSLowerBound(32, 4)
		res := schedsim.SimulateATS(ins, 4)
		opt, _ := schedsim.OptimalMakespan(ins)
		ratio = res.Ratio(opt)
	}
	b.ReportMetric(ratio, "competitiveRatio")
}

// --- E2: Theorem 2 — Restart is 2-competitive ---

func BenchmarkTheorem2Restart(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, ins := range []*schedsim.Instance{
			schedsim.SerializerLowerBound(32),
			schedsim.ATSLowerBound(32, 4),
			schedsim.StaggeredCliques([]int{4, 6, 4, 6}),
		} {
			res := schedsim.SimulateRestart(ins, ins)
			opt, _ := schedsim.OptimalMakespan(ins)
			if r := res.Ratio(opt); r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "competitiveRatio")
}

// --- E3: Theorem 3 — Inaccurate prediction is O(n)-competitive ---

func BenchmarkTheorem3Inaccurate(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		actual, predicted := schedsim.InaccurateLowerBound(32)
		res := schedsim.SimulateInaccurate(actual, predicted)
		opt, _ := schedsim.OptimalMakespan(actual)
		ratio = res.Ratio(opt)
	}
	b.ReportMetric(ratio, "competitiveRatio")
}

// --- Ablations of Shrink's design choices ---

// BenchmarkAblationWritePred compares Shrink with and without write-set
// prediction on the write-heavy red-black tree.
func BenchmarkAblationWritePred(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "on"
		if disable {
			name = "off"
		}
		b.Run("writePred-"+name, func(b *testing.B) {
			cfg := sched.DefaultShrinkConfig()
			cfg.DisableWritePrediction = disable
			measure(b, harness.Config{
				Engine:       enginecfg.EngineTiny,
				Scheduler:    enginecfg.SchedShrink,
				Threads:      16,
				Duration:     benchDur,
				Cores:        8,
				Seed:         1,
				ShrinkConfig: &cfg,
			}, func() harness.Workload { return microbench.NewRBTree(4096, 70) })
		})
	}
}

// BenchmarkAblationAffinity compares serialization affinity against
// unconditional read-set checking.
func BenchmarkAblationAffinity(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "affinity"
		if disable {
			name = "always"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sched.DefaultShrinkConfig()
			cfg.DisableAffinity = disable
			measure(b, harness.Config{
				Engine:       enginecfg.EngineSwiss,
				Scheduler:    enginecfg.SchedShrink,
				Threads:      16,
				Duration:     benchDur,
				Cores:        8,
				Seed:         1,
				ShrinkConfig: &cfg,
			}, func() harness.Workload {
				return bench7.NewWorkload(bench7.WriteDominated, bench7.Params{})
			})
		})
	}
}

// BenchmarkAblationWindow sweeps the locality window size.
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{2, 4, 8} {
		window := window
		b.Run("w"+itoa(window), func(b *testing.B) {
			cfg := sched.DefaultShrinkConfig()
			cfg.Predict.LocalityWindow = window
			measure(b, harness.Config{
				Engine:       enginecfg.EngineSwiss,
				Scheduler:    enginecfg.SchedShrink,
				Threads:      16,
				Duration:     benchDur,
				Cores:        8,
				Seed:         1,
				ShrinkConfig: &cfg,
			}, func() harness.Workload {
				return bench7.NewWorkload(bench7.ReadWrite, bench7.Params{})
			})
		})
	}
}

// BenchmarkAblationEagerPrediction quantifies the lazy-activation
// optimization against Algorithm 1's always-on tracking.
func BenchmarkAblationEagerPrediction(b *testing.B) {
	for _, eager := range []bool{false, true} {
		eager := eager
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sched.DefaultShrinkConfig()
			cfg.EagerPrediction = eager
			measure(b, harness.Config{
				Engine:       enginecfg.EngineSwiss,
				Scheduler:    enginecfg.SchedShrink,
				Threads:      1,
				Duration:     benchDur,
				Cores:        8,
				Seed:         1,
				ShrinkConfig: &cfg,
			}, func() harness.Workload { return microbench.NewRBTree(16384, 20) })
		})
	}
}

// BenchmarkAblationSetStructure compares the red-black tree against the
// skip list under Shrink at the same key range and update mix: the
// skiplist's smaller, rotation-free write sets change what the write
// prediction can latch onto.
func BenchmarkAblationSetStructure(b *testing.B) {
	workloads := map[string]func() harness.Workload{
		"rbtree":   func() harness.Workload { return microbench.NewRBTree(4096, 20) },
		"skiplist": func() harness.Workload { return microbench.NewSkipListSet(4096, 20) },
	}
	for name, w := range workloads {
		name, w := name, w
		b.Run(name, func(b *testing.B) {
			measure(b, harness.Config{
				Engine:    enginecfg.EngineSwiss,
				Scheduler: enginecfg.SchedShrink,
				Threads:   8,
				Duration:  benchDur,
				Cores:     8,
				Seed:      1,
			}, w)
		})
	}
}

// --- Engine microbenchmarks (ns/op, allocations) ---

func newEngine(b *testing.B, name string) stm.TM {
	b.Helper()
	res, _, err := harnessBuild(name)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// harnessBuild exposes the harness engine construction for microbenches.
func harnessBuild(engine string) (stm.TM, string, error) {
	switch engine {
	case enginecfg.EngineSwiss, enginecfg.EngineTiny:
	default:
		return nil, "", errUnknownEngine
	}
	tm, err := harness.NewTM(harness.Config{Engine: engine})
	return tm, engine, err
}

var errUnknownEngine = errString("unknown engine")

type errString string

func (e errString) Error() string { return string(e) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkTypedReadOnlyTx runs a one-read update transaction on each
// engine, the value moving unboxed. Allocations per op must be 0 (the
// regression test in internal/stm pins this).
func BenchmarkTypedReadOnlyTx(b *testing.B) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			tm := newEngine(b, engine)
			th := tm.Register("b")
			v := stm.NewT[int64](1)
			body := func(tx stm.Tx) error {
				_, err := stm.ReadT(tx, v)
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomically(body)
			}
		})
	}
}

// BenchmarkTypedUpdateTx runs a one-var read-modify-write transaction on
// each engine.
func BenchmarkTypedUpdateTx(b *testing.B) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			tm := newEngine(b, engine)
			th := tm.Register("b")
			v := stm.NewT[int64](0)
			body := func(tx stm.Tx) error {
				n, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				return stm.WriteT(tx, v, n+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomically(body)
			}
		})
	}
}

// BenchmarkScheduledUpdateTx measures the scheduler tax on the commit
// lifecycle: the same typed read-modify-write transaction with no scheduler
// (NopScheduler) and with Shrink attached, on both engines. The delta
// between the nop and shrink rows is the cost of running prediction per
// committed transaction, which this repository keeps allocation-free.
func BenchmarkScheduledUpdateTx(b *testing.B) {
	engines := []struct {
		name  string
		build func(stm.Scheduler) stm.TM
	}{
		{enginecfg.EngineSwiss, func(s stm.Scheduler) stm.TM {
			return swiss.New(swiss.Options{Scheduler: s})
		}},
		{enginecfg.EngineTiny, func(s stm.Scheduler) stm.TM {
			return tiny.New(tiny.Options{Scheduler: s})
		}},
	}
	schedulers := []struct {
		name string
		new  func() stm.Scheduler
	}{
		{"nop", func() stm.Scheduler { return stm.NopScheduler{} }},
		{"shrink", func() stm.Scheduler { return sched.NewShrink(sched.DefaultShrinkConfig()) }},
	}
	for _, engine := range engines {
		for _, scheduler := range schedulers {
			build := engine.build
			newSched := scheduler.new
			b.Run(engine.name+"/"+scheduler.name, func(b *testing.B) {
				tm := build(newSched())
				th := tm.Register("b")
				v := stm.NewT[int64](0)
				body := func(tx stm.Tx) error {
					n, err := stm.ReadT(tx, v)
					if err != nil {
						return err
					}
					return stm.WriteT(tx, v, n+1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = th.Atomically(body)
				}
			})
		}
	}
}

// BenchmarkReadOnlyTx quantifies the read-only snapshot mode (the PR-4
// tentpole) against the update path it replaces for pure readers: the same
// transaction bodies — a single typed read, and a 100-var scan — run once
// through Atomically (read log, commit-time validation, write-index probe
// per read) and once through AtomicallyRO (inline snapshot validation, no
// logs, no commit phase). Allocations per op must be 0 on every row; the
// RO rows must not be slower than their update-path twins.
func BenchmarkReadOnlyTx(b *testing.B) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			b.Run("single/update", func(b *testing.B) {
				tm := newEngine(b, engine)
				th := tm.Register("b")
				v := stm.NewT[int64](1)
				body := func(tx stm.Tx) error {
					_, err := stm.ReadT(tx, v)
					return err
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = th.Atomically(body)
				}
			})
			b.Run("single/ro", func(b *testing.B) {
				tm := newEngine(b, engine)
				th := tm.Register("b")
				v := stm.NewT[int64](1)
				body := func(tx *stm.ROTx) error {
					_, err := stm.ReadTRO(tx, v)
					return err
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = th.AtomicallyRO(body)
				}
			})
			b.Run("scan100/update", func(b *testing.B) {
				tm := newEngine(b, engine)
				th := tm.Register("b")
				vars := roScanVars()
				body := func(tx stm.Tx) error {
					for _, v := range vars {
						if _, err := stm.ReadT(tx, v); err != nil {
							return err
						}
					}
					return nil
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = th.Atomically(body)
				}
			})
			b.Run("scan100/ro", func(b *testing.B) {
				tm := newEngine(b, engine)
				th := tm.Register("b")
				vars := roScanVars()
				body := func(tx *stm.ROTx) error {
					for _, v := range vars {
						if _, err := stm.ReadTRO(tx, v); err != nil {
							return err
						}
					}
					return nil
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = th.AtomicallyRO(body)
				}
			})
		})
	}
}

var benchSpacerSink []byte

func roScanVars() []*stm.TVar[int64] {
	vars := make([]*stm.TVar[int64], 100)
	for i := range vars {
		vars[i] = stm.NewT(int64(i))
	}
	return vars
}

// BenchmarkDisjointUpdate2Threads verifies the ThreadCtx counter padding:
// two threads committing disjoint single-var updates share no transactional
// state, so the only cross-thread cache traffic left is whatever the
// per-thread statistics layout leaks. With the hot counters fenced to their
// own cache lines, per-op cost should track the single-threaded update
// benchmark instead of degrading with false sharing.
func BenchmarkDisjointUpdate2Threads(b *testing.B) {
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			tm := newEngine(b, engine)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < 2; w++ {
				th := tm.Register("w" + itoa(w))
				v := stm.NewT[int64](0)
				// Space the two vars apart on the heap so the benchmark
				// measures the ThreadCtx counter layout, not accidental
				// false sharing between the adjacent Var allocations.
				benchSpacerSink = make([]byte, 192)
				// Split b.N exactly (worker 0 takes the odd remainder),
				// so b.N=1 smoke runs still execute the body.
				iters := b.N / 2
				if w == 0 {
					iters = b.N - iters
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					body := func(tx stm.Tx) error {
						n, err := stm.ReadT(tx, v)
						if err != nil {
							return err
						}
						return stm.WriteT(tx, v, n+1)
					}
					for i := 0; i < iters; i++ {
						_ = th.Atomically(body)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// benchRBTreeMix drives the paper's red-black tree integer-set mix (range
// 16384, 20% updates) over a tree of value type V and reports committed
// ops/sec. val maps a key to the stored value, which is the only difference
// between the typed and boxed variants — everything else is byte-identical,
// so the gap between the two sub-benchmarks is pure boxing overhead.
func benchRBTreeMix[V any](b *testing.B, val func(int64) V) {
	const keyRange = 16384
	const updatePct = 20
	tm := newEngine(b, enginecfg.EngineSwiss)
	th := tm.Register("b")
	tree := stmds.NewRBTree[V]()
	rng := rand.New(rand.NewSource(99))
	for filled := 0; filled < keyRange/2; filled += 256 {
		_ = th.Atomically(func(tx stm.Tx) error {
			for i := 0; i < 256; i++ {
				k := int64(rng.Intn(keyRange))
				if _, err := tree.Insert(tx, k, val(k)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	rng = rand.New(rand.NewSource(1))
	var k int64
	var p int
	body := func(tx stm.Tx) error {
		switch {
		case p < updatePct/2:
			_, err := tree.Insert(tx, k, val(k))
			return err
		case p < updatePct:
			_, err := tree.Delete(tx, k)
			return err
		default:
			_, err := tree.Contains(tx, k)
			return err
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		k = int64(rng.Intn(keyRange))
		p = rng.Intn(100)
		_ = th.Atomically(body)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "tx/s")
}

// BenchmarkRBTreeTypedVsBoxed runs the mix once over RBTree[int64] (typed,
// unboxed) and once over RBTree[any] (the boxed path the untyped Var API
// used to impose on every structure). The typed variant must at least match
// the boxed one in committed ops/sec.
func BenchmarkRBTreeTypedVsBoxed(b *testing.B) {
	b.Run("typed", func(b *testing.B) {
		benchRBTreeMix(b, func(k int64) int64 { return k })
	})
	b.Run("boxed", func(b *testing.B) {
		benchRBTreeMix(b, func(k int64) any { return k })
	})
}
