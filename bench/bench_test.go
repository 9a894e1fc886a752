package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// genOps draws n ops from caller idx of a workload built for seed, without
// opening anything.
func genOps(t *testing.T, sp *spec, seed uint64, idx, n int) []any {
	t.Helper()
	e := env{seed: seed, procs: 2, smoke: true, faults: new(faults)}
	var ops []any
	switch w := sp.make(e).(type) {
	case *kvWorkload:
		c := &kvCaller{idx: idx, w: w, rng: newRNG(seed, uint64(idx))}
		for i := 0; i < n; i++ {
			ops = append(ops, w.shape.gen(c))
		}
	case *treeWorkload:
		c := &treeCaller{w: w, rng: newRNG(seed, uint64(idx))}
		for i := 0; i < n; i++ {
			ops = append(ops, c.gen())
		}
	default:
		t.Fatalf("unknown workload type %T", w)
	}
	return ops
}

func TestSameSeedSameOpStream(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b := genOps(t, sp, 7, 1, 2000), genOps(t, sp, 7, 1, 2000)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: op %d differs between two streams of the same seed and caller: %v vs %v", sp.name, j, a[j], b[j])
			}
		}
		differs := func(c []any) bool {
			for j := range a {
				if a[j] != c[j] {
					return true
				}
			}
			return false
		}
		if !differs(genOps(t, sp, 8, 1, 2000)) {
			t.Errorf("%s: another seed gave the same stream", sp.name)
		}
		if !differs(genOps(t, sp, 7, 2, 2000)) {
			t.Errorf("%s: another caller of the same seed gave the same stream", sp.name)
		}
	}
}

// fakeClock is a clock that only moves when told to: waits jump to the
// due time (plus a fixed overshoot), ops advance it by their service time.
type fakeClock struct {
	t         int64
	overshoot int64
}

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) waitUntil(t int64) int64 {
	if c.t < t {
		c.t = t + c.overshoot
	}
	return c.t
}

func TestPacedLatencyIsFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	service := []int64{10, 350, 10, 10, 10, 10}
	var sent []int64
	var res pacedResult
	runPaced(clk, schedule{start: 1000, interval: 100}, len(service), func(i int) bool {
		sent = append(sent, clk.t)
		clk.t += service[i]
		return i != 3
	}, &res)

	// The 350-long op makes the next three go out late; each is still
	// charged from when it was due, and the one that failed is charged the
	// most a sample can hold.
	wantSent := []int64{1000, 1100, 1450, 1460, 1470, 1500}
	wantLat := []uint32{10, 350, 260, failedLatency, 80, 10}
	for i := range wantSent {
		if sent[i] != wantSent[i] {
			t.Errorf("op %d sent at %d, want %d", i, sent[i], wantSent[i])
		}
	}
	if !slices.Equal(res.lat, wantLat) {
		t.Errorf("latencies %v, want %v", res.lat, wantLat)
	}
	if !slices.Equal(res.late, make([]uint32, 6)) {
		t.Errorf("a generator that never overshoots must report zero lateness, got %v", res.late)
	}
	if res.failed != 1 || res.end != 1510 {
		t.Errorf("failed=%d end=%d, want 1 and 1510", res.failed, res.end)
	}

	// A generator that wakes 7 late is 7 late on every op it waited for,
	// and that is all lateness counts.
	clk = &fakeClock{overshoot: 7}
	res = pacedResult{}
	runPaced(clk, schedule{start: 1000, interval: 100}, 4, func(int) bool { clk.t += 10; return true }, &res)
	if !slices.Equal(res.late, []uint32{7, 7, 7, 7}) || !slices.Equal(res.lat, []uint32{17, 17, 17, 17}) {
		t.Errorf("overshoot of 7: lateness %v latency %v, want all 7 and all 17", res.late, res.lat)
	}
}

func TestCallerSchedules(t *testing.T) {
	s, each := callerSchedules(5000, 1000, 4, 2*time.Second) // 1000 ops/s over 4 callers
	if each != 500 {
		t.Errorf("ops per caller = %d, want 500", each)
	}
	for i, sc := range s {
		if sc.interval != 4e6 || sc.start != 5000+int64(i)*1e6 {
			t.Errorf("caller %d: start %d interval %d, want start %d interval 4000000", i, sc.start, sc.interval, 5000+int64(i)*1e6)
		}
		if sc.due(3) != sc.start+3*4e6 {
			t.Errorf("caller %d: due(3) = %d", i, sc.due(3))
		}
	}
}

func TestClosedLoopWindows(t *testing.T) {
	clk := &fakeClock{}
	var res closedResult
	// Each op takes 10; boundaries at 100, 200, 300: 10 ops per window.
	runClosed(clk, []int64{100, 200, 300}, 1, func(int) bool { clk.t += 10; return true }, &res)
	if len(res.marks) != 3 || res.marks[1]-res.marks[0] != 10 || res.marks[2]-res.marks[1] != 10 {
		t.Fatalf("marks = %v, want 10 ops between boundaries", res.marks)
	}
	rates := windowRates([]closedResult{res, res}, 100*time.Nanosecond)
	if len(rates) != 2 || rates[0] != 2e8 {
		t.Errorf("rates = %v, want two windows of 2e8 ops/s", rates)
	}

	// An op that fails is counted as failed and in no window.
	clk, res = &fakeClock{}, closedResult{}
	runClosed(clk, []int64{100, 200}, 1, func(i int) bool { clk.t += 10; return i%2 == 0 }, &res)
	if res.issued != 10 || res.failed != 5 || res.marks[1]-res.marks[0] != 5 {
		t.Errorf("issued %d failed %d marks %v, want 10 issued, 5 failed, 5 in the window", res.issued, res.failed, res.marks)
	}
}

func TestPercentileOnKnownSample(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51}} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([10,...,90,1000], n=4) == [27.5, 55.0, 82.5]
	q1, q2, q3 := quartiles([]float64{1000, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	if q1 != 27.5 || q2 != 55 || q3 != 82.5 {
		t.Errorf("quartiles = %v %v %v, want 27.5 55 82.5", q1, q2, q3)
	}
	if got := relIQR([]float64{1000, 10, 20, 30, 40, 50, 60, 70, 80, 90}); got != 1 {
		t.Errorf("relIQR = %v, want 1", got)
	}
}

func TestZipfMass(t *testing.T) {
	const n, s, draws = 2048, 1.1, 400000
	z := newZipf(n, s)
	norm := 0.0
	for r := 1; r <= n; r++ {
		norm += 1 / math.Pow(float64(r), s)
	}
	r := newRNG(11, 0)
	counts := make([]float64, n)
	for i := 0; i < draws; i++ {
		counts[z.sample(&r)]++
	}
	top10, wantTop10 := 0.0, 0.0
	for rank := 0; rank < 10; rank++ {
		top10 += counts[rank] / draws
		wantTop10 += 1 / math.Pow(float64(rank+1), s) / norm
	}
	if want := 1 / norm; math.Abs(counts[0]/draws-want) > 0.03*want {
		t.Errorf("rank 0 drew %.4f of the mass, want %.4f", counts[0]/draws, want)
	}
	if math.Abs(top10-wantTop10) > 0.02*wantTop10 {
		t.Errorf("top ten ranks drew %.4f of the mass, want %.4f", top10, wantTop10)
	}
	if counts[n-1] == 0 && counts[n-2] == 0 && counts[n-3] == 0 {
		t.Error("the tail is never drawn")
	}
}

func TestBlobSelfCheck(t *testing.T) {
	tag := makeTag(3, 99)
	b := makeBlob(42, tag)
	if got, ok := checkBlob(b, 42); !ok || got != tag || tagCaller(got) != 3 {
		t.Fatalf("intact blob: tag %#x ok=%v", got, ok)
	}
	if _, ok := checkBlob(b, 43); ok {
		t.Error("a blob must not check out under another key")
	}
	torn := []byte(b)
	torn[77] ^= 1
	if _, ok := checkBlob(string(torn), 42); ok {
		t.Error("a flipped bit must be noticed")
	}
	if _, ok := checkBlob(b[:100], 42); ok {
		t.Error("a short value must be noticed")
	}
}

// TestSmoke runs every workload end to end for a fifth of a second, once
// untraced on one processor and once traced on two, with its output check
// on.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i := range specs {
		sp := &specs[i]
		for _, traced := range []bool{false, true} {
			procs := 1
			if traced {
				procs = 2
			}
			runtime.GOMAXPROCS(procs)
			out := t.TempDir()
			r := &run{
				spec:    sp,
				env:     env{seed: 5, procs: procs, traced: traced, smoke: true, warmOps: 400, dir: filepath.Join(out, "scratch"), faults: new(faults)},
				seconds: 0.2, outDir: out,
			}
			values, err := r.execute()
			if err != nil {
				t.Errorf("%s traced=%v: %v", sp.name, traced, err)
				continue
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d (%v)", sp.name, traced, r.attempted, r.failed, r.env.faults.opErrs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if st, err := os.Stat(filepath.Join(out, "trace-"+sp.name+".json")); err != nil || st.Size() < 100 {
					t.Errorf("%s: span file missing or empty: %v", sp.name, err)
				}
			}
			for _, d := range defs {
				if _, ok := values[d.Name]; !ok && (!traced || strings.Contains(d.on, sp.name)) {
					t.Errorf("%s traced=%v: metric %s not reported", sp.name, traced, d.Name)
				}
			}
			if !traced && (values["ops_s"] <= 0 || values["rss_mb"] <= 0 || values["setup_s"] <= 0) {
				t.Errorf("%s: implausible end-to-end values %v", sp.name, values)
			}
		}
	}
}

// TestFailedOpFailsRun: fail_frac is checked at 0, so one failed or refused
// op makes an otherwise clean run incorrect.
func TestFailedOpFailsRun(t *testing.T) {
	r := &run{env: env{faults: new(faults)}, attempted: 10}
	if err := r.noFailures(nil); err != nil {
		t.Errorf("a run without failed ops: %v", err)
	}
	r.failed = 1
	if r.noFailures(nil) == nil {
		t.Error("a run with a failed op passed")
	}
}

// TestWrongResultFailsRun makes sure the output check has teeth: a caller
// that claims a write it never made must fail verify.
func TestWrongResultFailsRun(t *testing.T) {
	e := env{seed: 1, procs: 2, smoke: true, warmOps: 100, dir: t.TempDir(), faults: new(faults)}
	w := specByName("wire_read").make(e).(*kvWorkload)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.verify(nil); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	w.all[0].lastBlob[3] = makeTag(0, 1<<40) // an acknowledged put the store never saw
	if err := w.verify(nil); err == nil {
		t.Error("a lost acknowledged put passed the output check")
	}

	e.faults = new(faults)
	tw := newTreeWorkload(e)
	if err := tw.setup(); err != nil {
		t.Fatal(err)
	}
	tw.all[0].inserted++ // an insert the tree never saw
	if err := tw.verify(nil); err == nil {
		t.Error("a size mismatch passed the output check")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds the metric tables to the benchmark contract and the
// committed BENCHMARK.json to the tables.
func TestManifest(t *testing.T) {
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	text := manifest()
	if err := json.Unmarshal([]byte(text), &m); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || m.RunSeconds < 1 || m.RunSeconds > 60 || len(text) > 64<<10 {
		t.Errorf("%d workloads, run_seconds %d, %d bytes", len(m.Workloads), m.RunSeconds, len(text))
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := 0
	for _, d := range m.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup++
		}
	}
	if setup != 1 || len(m.EndToEnd) > 16 {
		t.Errorf("need exactly one setup_s among at most 16 end-to-end metrics, have %d of %d", setup, len(m.EndToEnd))
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(m.PerLayer))
	}
	for _, d := range m.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", d)
		}
	}

	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	if string(committed) != text {
		t.Error("BENCHMARK.json is not what `go run . -manifest` prints; regenerate it")
	}
}
