package schedsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestTheorem1Serializer reproduces the Figure 2(a) lower bound: Serializer
// needs makespan n while OPT = 2, so its competitive ratio grows as n/2.
func TestTheorem1Serializer(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		ins := SerializerLowerBound(n)
		if err := ins.Validate(); err != nil {
			t.Fatal(err)
		}
		res := SimulateSerializer(ins)
		if res.Makespan != n {
			t.Errorf("n=%d: Serializer makespan = %d, want %d", n, res.Makespan, n)
		}
		opt, exact := OptimalMakespan(ins)
		if !exact || opt != 2 {
			t.Errorf("n=%d: OPT = %d (exact=%v), want 2", n, opt, exact)
		}
	}
}

// TestTheorem1ATS reproduces the Figure 2(b) lower bound: ATS needs
// makespan k+n-1 while OPT = k+1.
func TestTheorem1ATS(t *testing.T) {
	const k = 4
	for _, n := range []int{4, 8, 16} {
		ins := ATSLowerBound(n, k)
		if err := ins.Validate(); err != nil {
			t.Fatal(err)
		}
		res := SimulateATS(ins, k)
		want := k + n - 1
		if res.Makespan != want {
			t.Errorf("n=%d: ATS makespan = %d, want %d", n, res.Makespan, want)
		}
		opt, exact := OptimalMakespan(ins)
		if !exact || opt != k+1 {
			t.Errorf("n=%d: OPT = %d (exact=%v), want %d", n, opt, exact, k+1)
		}
	}
}

// TestTheorem2Restart verifies 2-competitiveness of the online clairvoyant
// Restart on every instance family with a known optimum.
func TestTheorem2Restart(t *testing.T) {
	instances := []*Instance{
		SerializerLowerBound(8),
		SerializerLowerBound(24),
		ATSLowerBound(8, 3),
		ATSLowerBound(20, 5),
		CliqueUnion([]int{4, 4, 4}),
		CliqueUnion([]int{1, 7, 3}),
		StaggeredCliques([]int{3, 3, 3}),
		StaggeredCliques([]int{5, 1, 4, 2}),
		StaggeredCliques([]int{2, 6, 2, 6}),
	}
	for _, ins := range instances {
		opt, exact := OptimalMakespan(ins)
		if !exact {
			t.Fatalf("%s: expected known OPT", ins.Name)
		}
		res := SimulateRestart(ins, ins)
		if res.Makespan > 2*opt {
			t.Errorf("%s: Restart makespan %d > 2*OPT = %d", ins.Name, res.Makespan, 2*opt)
		}
		// And it must also respect the structural bound Rm + OPT.
		if res.Makespan > ins.Rm()+opt {
			t.Errorf("%s: Restart makespan %d > Rm+OPT = %d", ins.Name, res.Makespan, ins.Rm()+opt)
		}
	}
}

// TestTheorem3Inaccurate reproduces the Theorem 3 lower bound: with a wrong
// all-pairs conflict prediction over conflict-free unit jobs, Inaccurate
// takes n while OPT = 1.
func TestTheorem3Inaccurate(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		actual, predicted := InaccurateLowerBound(n)
		res := SimulateInaccurate(actual, predicted)
		if res.Makespan != n {
			t.Errorf("n=%d: Inaccurate makespan = %d, want %d", n, res.Makespan, n)
		}
		opt, _ := OptimalMakespan(actual)
		if opt != 1 {
			t.Errorf("n=%d: OPT = %d, want 1", n, opt)
		}
		// The accurate scheduler on the same instance is optimal.
		res = SimulateRestart(actual, actual)
		if res.Makespan != 1 {
			t.Errorf("n=%d: accurate Restart makespan = %d, want 1", n, res.Makespan)
		}
	}
}

// TestGreedyPCWithinThree checks the 3-competitive pending-commit Greedy on
// the known-OPT families.
func TestGreedyPCWithinThree(t *testing.T) {
	instances := []*Instance{
		SerializerLowerBound(10),
		ATSLowerBound(10, 3),
		CliqueUnion([]int{3, 5, 2}),
		StaggeredCliques([]int{4, 4}),
	}
	for _, ins := range instances {
		opt, _ := OptimalMakespan(ins)
		res := SimulateGreedyPC(ins)
		if res.Makespan > 3*opt {
			t.Errorf("%s: GreedyPC makespan %d > 3*OPT = %d", ins.Name, res.Makespan, 3*opt)
		}
	}
}

func TestChromaticNumber(t *testing.T) {
	// Empty graph: 1 color.
	ins := NewInstance(5)
	if got := chromaticNumber(ins); got != 1 {
		t.Errorf("empty: chi = %d, want 1", got)
	}
	// Complete graph K5: 5 colors.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			ins.AddConflict(i, j)
		}
	}
	if got := chromaticNumber(ins); got != 5 {
		t.Errorf("K5: chi = %d, want 5", got)
	}
	// Odd cycle C5: 3 colors.
	c5 := NewInstance(5)
	for i := 0; i < 5; i++ {
		c5.AddConflict(i, (i+1)%5)
	}
	if got := chromaticNumber(c5); got != 3 {
		t.Errorf("C5: chi = %d, want 3", got)
	}
	// Bipartite K3,3: 2 colors.
	b := NewInstance(6)
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			b.AddConflict(i, j)
		}
	}
	if got := chromaticNumber(b); got != 2 {
		t.Errorf("K33: chi = %d, want 2", got)
	}
}

func TestLowerBoundComponents(t *testing.T) {
	ins := NewInstance(3)
	ins.Exec[0] = 7
	ins.Release[1] = 9
	if lb := LowerBound(ins); lb != 9 {
		t.Errorf("lb = %d, want 9 (Rm dominates)", lb)
	}
	ins.Exec[2] = 20
	if lb := LowerBound(ins); lb != 20 {
		t.Errorf("lb = %d, want 20 (Em dominates)", lb)
	}
	ins.AddConflict(0, 2)
	if lb := LowerBound(ins); lb != 27 {
		t.Errorf("lb = %d, want 27 (clique work dominates)", lb)
	}
}

// TestRestartBoundsProperty: on random instances, every simulator (Restart,
// Serializer, ATS, GreedyPC) schedules each transaction no earlier than its
// release plus execution time, and its makespan lies between LowerBound and
// a loose sanity cap of 10 × (total work + Rm) + 100.
func TestRestartBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		ins := RandomInstance(10, 0.3, 3, 4, seed)
		if err := ins.Validate(); err != nil {
			return false
		}
		rr := SimulateRestart(ins, ins)
		rs := SimulateSerializer(ins)
		ra := SimulateATS(ins, 3)
		rg := SimulateGreedyPC(ins)
		lb := LowerBound(ins)
		for _, r := range []Result{rr, rs, ra, rg} {
			if r.Makespan < lb {
				t.Logf("seed %d: makespan %d below lower bound %d", seed, r.Makespan, lb)
				return false
			}
			if r.Makespan > 10*(ins.TotalWork()+ins.Rm())+100 {
				t.Logf("seed %d: makespan %d absurd", seed, r.Makespan)
				return false
			}
			for i, f := range r.Finish {
				if f < ins.Release[i]+ins.Exec[i] {
					t.Logf("seed %d: tx %d finished at %d before release+exec", seed, i, f)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTheoremSuite(t *testing.T) {
	rows := RunTheoremSuite([]int{6, 12}, 3)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Makespan <= 0 || r.Opt <= 0 {
			t.Errorf("degenerate row: %s", r)
		}
		if r.Scheduler == "Restart" && r.OptExact && r.Ratio() > 2.000001 {
			t.Errorf("Restart exceeded 2-competitiveness: %s", r)
		}
		if len(r.String()) == 0 {
			t.Error("empty row formatting")
		}
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	ins := SerializerLowerBound(5)
	cp := ins.Clone()
	cp.AddConflict(3, 4)
	if ins.Conflicts(3, 4) {
		t.Fatal("clone shares adjacency")
	}
	if cp.KnownOPT != ins.KnownOPT || cp.Name != ins.Name {
		t.Fatal("clone lost metadata")
	}
}

func TestGantt(t *testing.T) {
	ins := SerializerLowerBound(5)
	res := SimulateSerializer(ins)
	out := Gantt(ins, res)
	if !strings.Contains(out, "makespan = 5") {
		t.Fatalf("gantt missing makespan:\n%s", out)
	}
	for i := 1; i <= 5; i++ {
		if !strings.Contains(out, fmt.Sprintf("T%d", i)) {
			t.Fatalf("gantt missing row T%d:\n%s", i, out)
		}
	}
	if !strings.Contains(out, "#") {
		t.Fatal("gantt has no execution marks")
	}
	// Degenerate cases must not panic.
	if got := Gantt(NewInstance(0), Result{}); !strings.Contains(got, "empty") {
		t.Fatalf("empty instance rendering: %q", got)
	}
	if got := Gantt(NewInstance(2), Result{Finish: []int{0, 0}}); !strings.Contains(got, "empty") {
		t.Fatalf("empty schedule rendering: %q", got)
	}
}

// Test helpers: instance checks and the instance families only the tests
// build.

// Validate checks internal consistency.
func (ins *Instance) Validate() error {
	if len(ins.Release) != len(ins.Exec) || len(ins.adj) != len(ins.Exec) {
		return fmt.Errorf("inconsistent lengths")
	}
	for i := range ins.Exec {
		if ins.Exec[i] <= 0 {
			return fmt.Errorf("transaction %d has non-positive execution time", i)
		}
		if ins.Release[i] < 0 {
			return fmt.Errorf("transaction %d has negative release time", i)
		}
		for j := range ins.adj[i] {
			if !ins.adj[j][i] {
				return fmt.Errorf("conflict %d-%d not symmetric", i, j)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (ins *Instance) Clone() *Instance {
	out := NewInstance(ins.N())
	copy(out.Release, ins.Release)
	copy(out.Exec, ins.Exec)
	for i := range ins.adj {
		for j := range ins.adj[i] {
			out.adj[i][j] = true
		}
	}
	out.KnownOPT = ins.KnownOPT
	out.Name = ins.Name
	return out
}

// CliqueUnion builds an instance of disjoint cliques (all released at 0):
// clique c has sizes[c] unit-time transactions that pairwise conflict.
// OPT = max clique size.
func CliqueUnion(sizes []int) *Instance {
	n := 0
	for _, s := range sizes {
		n += s
	}
	ins := NewInstance(n)
	ins.Name = fmt.Sprintf("clique-union(%v)", sizes)
	base := 0
	opt := 0
	for _, s := range sizes {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				ins.AddConflict(base+i, base+j)
			}
		}
		if s > opt {
			opt = s
		}
		base += s
	}
	ins.KnownOPT = opt
	return ins
}

// RandomInstance builds a random instance: n transactions, conflict density
// p, execution times in [1, maxExec], release times in [0, maxRelease].
// KnownOPT stays 0 (unknown); use bounds for checks.
func RandomInstance(n int, p float64, maxExec, maxRelease int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := NewInstance(n)
	ins.Name = fmt.Sprintf("random(n=%d,p=%.2f,seed=%d)", n, p, seed)
	for i := 0; i < n; i++ {
		if maxExec > 1 {
			ins.Exec[i] = 1 + rng.Intn(maxExec)
		}
		if maxRelease > 0 {
			ins.Release[i] = rng.Intn(maxRelease + 1)
		}
		for j := 0; j < i; j++ {
			if rng.Float64() < p {
				ins.AddConflict(i, j)
			}
		}
	}
	return ins
}
