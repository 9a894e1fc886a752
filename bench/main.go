// Command bench is this repository's benchmark: four workloads over the
// tkv store and the STM engines, three end-to-end metrics on each, and a
// traced run that attributes time to layers. README.md in this directory
// says what every name means and how the bounds were set.
//
// Run it from the repository root:
//
//	bash bench/run.sh                       all four workloads, untraced
//	bash bench/run.sh -trace 1              ... and a traced run of each
//	bash bench/run.sh -workload stm_tree    one workload (what the driver does)
//	bash bench/run.sh -aa 5                 two interleaved sets of 5 runs; fails if their medians disagree
//
// A single-workload run ends with one JSON line holding its metrics; any
// wrong result makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and end with its JSON result line; empty runs every workload in turn")
		seed         = flag.Uint64("seed", 1, "seed of the generated op streams")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed phases of one run, set-up and output check not counted")
		trace        = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
		aa           = flag.Int("aa", 0, "run two interleaved sets of this many runs per workload and fail if an end-to-end median differs by more than its bound")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		outDir       = flag.String("out", "", "directory for span files and scratch data (default bench/out from the repository root, out from bench/)")
	)
	flag.Parse()
	if *printMan {
		fmt.Print(manifest())
		return
	}
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	if *outDir == "" {
		*outDir = "out"
		if _, err := os.Stat("bench/go.mod"); err == nil {
			*outDir = "bench/out"
		}
	}

	var err error
	switch {
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds, *outDir)
	case *workloadName == "":
		err = runAll(*seed, *seconds, *trace == 1, *outDir)
	default:
		sp := specByName(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workloadName)
			os.Exit(2)
		}
		err = runOne(sp, *seed, *seconds, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// maxProcs caps the traced run's GOMAXPROCS and with it its caller counts,
// so hosts with more cores than this still run the same shape.
const maxProcs = 4

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is a whole run of one workload in this process.
func runOne(sp *spec, seed uint64, seconds float64, traced bool, outDir string) error {
	// The untraced run, whose numbers carry bounds, has one processor;
	// the traced run has them all. workloads.go says why.
	procs := 1
	if traced {
		procs = min(runtime.NumCPU(), maxProcs)
	}
	runtime.GOMAXPROCS(procs)
	dir := filepath.Join(outDir, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		spec:    sp,
		env:     env{seed: seed, procs: procs, traced: traced, warmOps: sp.warmOps, dir: dir, faults: new(faults)},
		seconds: seconds, outDir: outDir,
	}

	values, runErr := r.execute()
	res := result{Correct: runErr == nil, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: make(map[string]metricValue)}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %g traced %v gomaxprocs %d\n", sp.name, seed, seconds, traced, procs)
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		fmt.Printf("  %-28s %14.4f %-6s%s\n", d.Name, values[d.Name], d.Unit, r.notes[d.Name])
	}
	fmt.Printf("  %-28s %14d of %d attempted in the timed phases\n", "failed", r.failed, r.attempted)
	for _, e := range r.env.faults.opErrs {
		fmt.Printf("  op error: %s\n", e)
	}
	if runErr != nil {
		fmt.Printf("  WRONG: %v\n", runErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return runErr
}

// run carries one workload through its phases.
type run struct {
	spec    *spec
	env     env
	seconds float64
	outDir  string

	attempted, failed int64
	notes             map[string]string // printed beside a metric: sample counts, warnings
}

// checkEvery is how many closed-loop ops pass between clock reads.
func (r *run) checkEvery() int {
	if r.spec.spin {
		return 32
	}
	return 1
}

// pacedClocks returns one clock per caller for the open loop: spinning
// for callers that have a processor each, the timerfd pacer for callers
// that share one. stop releases the pacer.
func (r *run) pacedClocks(base time.Time, n int) (clocks []clock, stop func(), err error) {
	clocks, stop = make([]clock, n), func() {}
	var pacer *fdPacer
	if !r.spec.spin {
		if pacer, err = newFDPacer(base); err != nil {
			return nil, nil, err
		}
		stop = pacer.close
	}
	for i := range clocks {
		if pacer != nil {
			clocks[i] = pacer.clock()
		} else {
			clocks[i] = spinClock{base}
		}
	}
	return clocks, stop, nil
}

// phaseGap separates a phase's start from the moment its callers are
// launched, so none starts late.
const phaseGap = 20 * time.Millisecond

func (r *run) execute() (map[string]float64, error) {
	values := make(map[string]float64)
	r.notes = make(map[string]string)

	// Phase 1, set-up: open, preload, serve, dial, then a warm-up of a
	// fixed number of ops. Repeated so that setup_s is a median; the last
	// one is the system the timed phases load.
	repeats := setupRepeats
	if r.env.traced || r.env.smoke {
		repeats = 1
	}
	var w workload
	var setups []float64
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
			w = nil
			// Hand the closed system's memory back, so that every set-up
			// starts from the same heap and rss_mb is one system's.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		w = r.spec.make(r.env)
		if err := w.setup(); err != nil {
			w.close()
			return values, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { w.close() }()
	values["setup_s"] = median(setups)
	r.notes["setup_s"] = fmt.Sprintf(" median of %d set-ups (%.3f)", repeats, setups)
	callers := w.callers()

	// What the loaded, warmed system holds at rest: garbage collected and
	// free memory handed back. It is read here, after a fixed amount of
	// work, because later it depends on how far the run got: how many ops
	// the closed loop managed, and whether the last collection of the
	// heap was before or after them (the peak, proc.peak_rss_mb in the
	// traced run, read 650 or 715 MiB on wire_read for that reason).
	debug.FreeOSMemory()
	values["rss_mb"] = statusMiB("VmRSS:")

	base := time.Now()
	clk := spinClock{base} // the closed loop waits only once, for its start
	if r.env.traced {
		err := r.tracedPhases(w, callers, base, clk, values)
		return values, r.noFailures(err)
	}

	// Phase 2, closed loop, the whole of -seconds: every caller issues its
	// next op as soon as the last one returns.
	rates := r.closedLoop(clk, callers, nil, windowsIn(r.seconds))
	values["ops_s"] = quietRate(rates)
	r.notes["ops_s"] = r.ratesNote(rates, len(callers))
	return values, r.noFailures(w.verify(nil))
}

func windowsIn(seconds float64) int {
	return max(int(seconds*float64(time.Second)/float64(closedWindow)), 2)
}

func (r *run) ratesNote(rates []float64, callers int) string {
	return fmt.Sprintf(" mean of the fastest %d of %d windows of %v (all: mean %.0f, median %.0f, max %.0f), %d callers on %d processors, closed loop",
		quietCount(len(rates)), len(rates), closedWindow, mean(rates), median(rates), quantile(rates, 1), callers, r.env.procs)
}

// noFailures turns a failed or refused op into a wrong result: no workload
// here has an op that may fail.
func (r *run) noFailures(err error) error {
	if err == nil && r.failed > 0 {
		return fmt.Errorf("%d of %d ops failed or were refused, first: %q", r.failed, r.attempted, r.env.faults.opErrs)
	}
	return err
}

// tracedPhases is the traced run after set-up: a closed loop, half of it
// traced; the paced open loop at the workload's fixed rate; the layers'
// counters; the replay of the trace sample into the layers; the output
// check. Its numbers are per-layer metrics and have no bounds.
func (r *run) tracedPhases(w workload, callers []caller, base time.Time, clk clock, values map[string]float64) error {
	closedS, pacedDur := phaseDurations(r.seconds)
	var bufs []*spanBuf
	for i := range callers {
		bufs = append(bufs, newSpanBuf(i, base))
	}
	usage0 := readUsage()

	// The ratio of the traced half's quiet rate to the untraced half's is
	// the tracing overhead.
	rates := r.closedLoop(clk, callers, nil, windowsIn(closedS/2))
	traced := r.closedLoop(clk, callers, bufs, windowsIn(closedS/2))
	values["proc.trace_overhead_frac"] = 1 - quietRate(traced)/quietRate(rates)
	values["loadgen.ops_s_mean"] = mean(rates)
	values["loadgen.ops_s_quiet"] = quietRate(rates)
	r.notes["loadgen.ops_s_quiet"] = r.ratesNote(rates, len(callers))

	pr, err := r.pacedLoop(base, callers, bufs, pacedDur)
	if err != nil {
		return err
	}
	us := func(sorted []uint32, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }
	values["loadgen.paced_p50_us"] = us(pr.lat, 0.50)
	values["loadgen.paced_p90_us"] = us(pr.lat, 0.90)
	values["loadgen.paced_p99_us"] = us(pr.lat, 0.99)
	values["loadgen.late_p90_us"] = us(pr.late, 0.90)
	values["loadgen.achieved_rate_frac"] = pr.achieved
	r.notes["loadgen.paced_p50_us"] = fmt.Sprintf(" n=%d at %.0f ops/s, from due time", len(pr.lat), pr.rate)
	if pr.achieved < 0.99 {
		r.notes["loadgen.achieved_rate_frac"] = " BACKLOG GROWING"
	}
	usage1 := readUsage()

	ops := float64(max(r.attempted, 1))
	values["loadgen.fail_frac"] = float64(r.failed) / ops
	values["proc.cpu_us_per_op"] = (usage1.cpuS - usage0.cpuS) * 1e6 / ops
	values["proc.allocs_per_op"] = (usage1.mallocs - usage0.mallocs) / ops
	values["proc.alloc_bytes_per_op"] = (usage1.allocBytes - usage0.allocBytes) / ops
	values["proc.gc_pause_ms"] = (usage1.gcPauseS - usage0.gcPauseS) * 1e3
	values["proc.peak_rss_mb"] = statusMiB("VmHWM:")
	values["proc.gc_cpu_frac"] = (usage1.gcCPUS - usage0.gcCPUS) / max(usage1.cpuS-usage0.cpuS, 1e-9)
	values["host.nproc"] = float64(runtime.NumCPU())
	values["host.gomaxprocs"] = float64(r.env.procs)
	values["host.fsync_p50_us"] = fsyncFingerprint(r.env.dir)
	w.counters(values, ops)

	replay := newSpanBuf(len(callers), base)
	lr := newLayerRun(replay)
	w.layers(lr)
	err = w.verify(lr)
	for name, v := range lr.metrics {
		values[name] = v
	}
	path := filepath.Join(r.outDir, "trace-"+r.spec.name+".json")
	if werr := writeSpans(path, append(bufs, replay)); werr != nil && err == nil {
		err = werr
	}
	return err
}

// tracedDo wraps a caller so that one op in traceSampleEvery is recorded
// as a loadgen.op span around whatever the caller records itself.
func tracedDo(c caller, sb *spanBuf) func(i int) bool {
	if sb == nil {
		return func(int) bool { return c.do(nil) }
	}
	return func(i int) bool {
		if i%traceSampleEvery != 0 {
			return c.do(nil)
		}
		sb.begin("loadgen.op", uint64(i))
		ok := c.do(sb)
		sb.end()
		return ok
	}
}

func bufAt(bufs []*spanBuf, i int) *spanBuf {
	if bufs == nil {
		return nil
	}
	return bufs[i]
}

func (r *run) closedLoop(clk clock, callers []caller, bufs []*spanBuf, windows int) []float64 {
	runtime.GC()
	bounds := make([]int64, windows+1)
	for i := range bounds {
		bounds[i] = clk.now() + int64(phaseGap) + int64(i)*int64(closedWindow)
	}
	results := make([]closedResult, len(callers))
	forEachCaller(len(callers), func(i int) {
		runClosed(clk, bounds, r.checkEvery(), tracedDo(callers[i], bufAt(bufs, i)), &results[i])
	})
	for _, res := range results {
		r.attempted += res.issued
		r.failed += res.failed
	}
	return windowRates(results, closedWindow)
}

// pacedPhase is what the open loop measured, over all callers.
type pacedPhase struct {
	lat, late []uint32 // every op's samples, sorted
	rate      float64  // offered, ops/s
	achieved  float64  // completed ops per second as a share of rate
}

func (r *run) pacedLoop(base time.Time, callers []caller, bufs []*spanBuf, dur time.Duration) (*pacedPhase, error) {
	runtime.GC()
	rate := r.spec.pacedRate
	if r.env.smoke {
		rate /= 4
	}
	clocks, stop, err := r.pacedClocks(base, len(callers))
	if err != nil {
		return nil, err
	}
	defer stop()
	start := clocks[0].now() + int64(phaseGap)
	scheds, each := callerSchedules(start, rate, len(callers), dur)
	results := make([]pacedResult, len(callers))
	forEachCaller(len(callers), func(i int) {
		runPaced(clocks[i], scheds[i], each, tracedDo(callers[i], bufAt(bufs, i)), &results[i])
	})

	var lat, late [][]uint32
	var end int64
	for _, res := range results {
		lat, late = append(lat, res.lat), append(late, res.late)
		r.failed += int64(res.failed)
		end = max(end, res.end)
	}
	done := int64(each * len(callers))
	r.attempted += done
	return &pacedPhase{
		lat: sortedSamples(lat), late: sortedSamples(late),
		rate:     rate,
		achieved: float64(done) / (float64(end-start) / 1e9) / rate,
	}, nil
}

// usage is the process's cumulative resource use.
type usage struct{ cpuS, mallocs, allocBytes, gcPauseS, gcCPUS float64 }

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return usage{tv(ru.Utime) + tv(ru.Stime), float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.PauseTotalNs) / 1e9, gc[0].Value.Float64()}
}

// statusMiB reads a memory field of /proc/self/status: "VmRSS:" is the
// resident set, "VmHWM:" its peak.
func statusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb)
			return kb / 1024
		}
	}
	return 0
}

// fsyncFingerprint is the median of a few real 4 KiB write+fsync pairs in
// dir: a description of the host, not a metric of the program.
func fsyncFingerprint(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 32; i++ {
		if _, err := f.Write(block); err != nil {
			return 0
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us)
}

// child runs this binary on one workload and parses its result line. The
// child's report goes to stdout above the parent's own.
func child(name string, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s: run failed its output check", name)
	}
	return &res, nil
}

// runAll runs every workload once (and once more traced, if asked), each
// in a process of its own so that rss_mb is that workload's alone.
func runAll(seed uint64, seconds float64, traced bool, outDir string) error {
	modes := []bool{false}
	if traced {
		modes = []bool{false, true}
	}
	var firstErr error
	for _, sp := range specs {
		for _, tr := range modes {
			if _, err := child(sp.name, seed, seconds, tr, outDir); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// runAA is the benchmark's check on itself: two sets of n runs of this
// same binary, interleaved so both see the same drift, every run on a
// seed of its own. Identical code must agree within the bounds the
// benchmark holds changes to; it also prints each set's spread, which is
// what the bounds were set from.
func runAA(n int, seed uint64, seconds float64, outDir string) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, sp := range specs {
			for j := 0; j < 2; j++ {
				side := (i + j) % 2 // alternate which set runs first
				res, err := child(sp.name, seed+uint64(2*i+side), seconds, false, outDir)
				if err != nil {
					return err
				}
				for _, d := range endToEnd {
					k := key{sp.name, d.Name}
					sets[side][k] = append(sets[side][k], res.Metrics[d.Name].Value)
				}
			}
		}
	}
	// "spread" is over all 2n runs: the quartile distance as a share of
	// the median, which the bounds are set against.
	fmt.Printf("\n%-16s %-13s %14s %14s %8s %14s %8s %6s\n", "workload", "metric", "median A", "median B", "B vs A", "median all", "spread", "bound")
	var failed []string
	for _, sp := range specs {
		for _, d := range endToEnd {
			k := key{sp.name, d.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			all := append(append([]float64(nil), sets[0][k]...), sets[1][k]...)
			diff := (b - a) / a
			verdict := ""
			if diff > d.Bound || diff < -d.Bound {
				verdict = "  DISAGREE"
				failed = append(failed, sp.name+"/"+d.Name)
			}
			fmt.Printf("%-16s %-13s %14.4f %14.4f %+7.2f%% %14.4f %7.2f%% %5.0f%%%s\n",
				sp.name, d.Name, a, b, 100*diff, median(all), 100*relIQR(all), 100*d.Bound, verdict)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("two sets of runs of the same binary disagree by more than the bound on %v", failed)
	}
	return nil
}
