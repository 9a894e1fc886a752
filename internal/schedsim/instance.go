// Package schedsim implements the scheduling model of Section 2 of the
// paper (after Motwani, Phillips, Torng's non-clairvoyant scheduling):
// transactions are jobs with release times, execution times, and a conflict
// graph; the machine has infinitely many processors; two conflicting
// transactions may not commit from overlapping executions; aborts and
// preemptions cost zero time, and an aborted transaction restarts from the
// beginning. The makespan is the performance measure.
//
// The package simulates the schedulers analyzed in the paper — Serializer
// (CAR-STM), ATS, the online clairvoyant Restart, its corrupted variant
// Inaccurate, and the pending-commit Greedy — and computes offline optimal
// makespans for the instance families used in Theorems 1–3, reproducing the
// competitive-ratio results.
package schedsim

import "fmt"

// Instance is a scheduling problem: n transactions with integer release and
// execution times and a symmetric conflict relation.
type Instance struct {
	Release []int
	Exec    []int
	adj     []map[int]bool
	// KnownOPT is the analytically known offline-optimal makespan for
	// constructed instances (0 when unknown).
	KnownOPT int
	// Name identifies the scenario in reports.
	Name string
}

// NewInstance returns an instance with n transactions, all released at time
// 0 with unit execution time and no conflicts; adjust fields afterwards.
func NewInstance(n int) *Instance {
	ins := &Instance{
		Release: make([]int, n),
		Exec:    make([]int, n),
		adj:     make([]map[int]bool, n),
	}
	for i := 0; i < n; i++ {
		ins.Exec[i] = 1
		ins.adj[i] = make(map[int]bool)
	}
	return ins
}

// N returns the number of transactions.
func (ins *Instance) N() int { return len(ins.Exec) }

// AddConflict declares transactions i and j conflicting.
func (ins *Instance) AddConflict(i, j int) {
	if i == j {
		return
	}
	ins.adj[i][j] = true
	ins.adj[j][i] = true
}

// Conflicts reports whether i and j conflict.
func (ins *Instance) Conflicts(i, j int) bool { return i != j && ins.adj[i][j] }

// Degree returns the number of conflicts of transaction i.
func (ins *Instance) Degree(i int) int { return len(ins.adj[i]) }

// Rm returns the latest release time.
func (ins *Instance) Rm() int {
	m := 0
	for _, r := range ins.Release {
		if r > m {
			m = r
		}
	}
	return m
}

// Em returns the longest execution time.
func (ins *Instance) Em() int {
	m := 0
	for _, e := range ins.Exec {
		if e > m {
			m = e
		}
	}
	return m
}

// TotalWork returns the sum of execution times.
func (ins *Instance) TotalWork() int {
	t := 0
	for _, e := range ins.Exec {
		t += e
	}
	return t
}

// --- Scenario constructors (the instance families of Section 2) ---

// SerializerLowerBound builds the Figure 2(a) family: T1 and T2 released at
// time 0 conflict with each other; T3..Tn released at time 1 all conflict
// with T2 only. Unit execution times. Serializer achieves makespan n while
// OPT = 2.
func SerializerLowerBound(n int) *Instance {
	if n < 3 {
		n = 3
	}
	ins := NewInstance(n)
	ins.Name = fmt.Sprintf("serializer-lb(n=%d)", n)
	ins.AddConflict(0, 1) // T1-T2
	for i := 2; i < n; i++ {
		ins.Release[i] = 1
		ins.AddConflict(1, i) // T2-Ti
	}
	ins.KnownOPT = 2
	return ins
}

// ATSLowerBound builds the Figure 2(b) family: all released at time 0;
// T1 has execution time k, T2..Tn have unit time and all conflict with T1
// only. ATS achieves makespan k+n-1 while OPT = k+1.
func ATSLowerBound(n, k int) *Instance {
	if n < 2 {
		n = 2
	}
	if k < 1 {
		k = 1
	}
	ins := NewInstance(n)
	ins.Name = fmt.Sprintf("ats-lb(n=%d,k=%d)", n, k)
	ins.Exec[0] = k
	for i := 1; i < n; i++ {
		ins.AddConflict(0, i)
	}
	ins.KnownOPT = k + 1
	return ins
}

// InaccurateLowerBound builds the Theorem 3 family: n transactions, all
// released at 0, unit times, with NO actual conflicts (each accesses only
// its own resource), while the returned predicted conflict relation claims
// every pair conflicts through the shared resource R1. OPT = 1; Inaccurate
// serializes everything and needs n.
func InaccurateLowerBound(n int) (ins *Instance, predicted *Instance) {
	if n < 2 {
		n = 2
	}
	ins = NewInstance(n)
	ins.Name = fmt.Sprintf("inaccurate-lb(n=%d)", n)
	ins.KnownOPT = 1
	predicted = NewInstance(n)
	predicted.Name = ins.Name + "-predicted"
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			predicted.AddConflict(i, j)
		}
	}
	return ins, predicted
}

// StaggeredCliques builds cliques released one per time step (clique c is
// released entirely at time c), unit execution times. The offline optimum
// runs each clique serially starting at its release: OPT =
// max_c (c + size_c) relative to time 0.
func StaggeredCliques(sizes []int) *Instance {
	n := 0
	for _, s := range sizes {
		n += s
	}
	ins := NewInstance(n)
	ins.Name = fmt.Sprintf("staggered-cliques(%v)", sizes)
	base := 0
	opt := 0
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			ins.Release[base+i] = c
			for j := i + 1; j < s; j++ {
				ins.AddConflict(base+i, base+j)
			}
		}
		if c+s > opt {
			opt = c + s
		}
		base += s
	}
	ins.KnownOPT = opt
	return ins
}
