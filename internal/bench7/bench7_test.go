package bench7_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/bench7"
	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
)

func smallParams() bench7.Params {
	return bench7.Params{
		AssemblyLevels:          3,
		AssemblyFanout:          2,
		ComponentsPerAssembly:   2,
		CompositeParts:          8,
		AtomicPartsPerComposite: 6,
		ConnectionsPerAtomic:    2,
		MaxBuildDate:            100,
	}
}

func buildSmall(t *testing.T) (*bench7.Benchmark, stm.Thread) {
	t.Helper()
	tm := swiss.New(swiss.Options{})
	th := tm.Register("setup")
	b := bench7.New(smallParams())
	if err := b.Build(th); err != nil {
		t.Fatalf("build: %v", err)
	}
	return b, th
}

func TestBuildGeometry(t *testing.T) {
	b, th := buildSmall(t)
	p := smallParams()
	// Levels=3, fanout=2: one root (level 3) with 2 level-2 children,
	// each carrying 2 base assemblies: 4 base assemblies total.
	if got := len(b.Bases); got != 4 {
		t.Fatalf("base assemblies = %d, want 4", got)
	}
	if got := len(b.Composites); got != p.CompositeParts {
		t.Fatalf("composites = %d, want %d", got, p.CompositeParts)
	}
	err := th.Atomically(func(tx stm.Tx) error {
		n, err := b.TotalAtomicParts(tx)
		if err != nil {
			return err
		}
		want := p.CompositeParts * p.AtomicPartsPerComposite
		if n != want {
			return fmt.Errorf("atomic parts = %d, want %d", n, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Root.Level != 3 {
		t.Fatalf("root level = %d", b.Root.Level)
	}
	err = th.Atomically(func(tx stm.Tx) error {
		subs, err := stm.ReadT(tx, b.Root.Subs)
		if err != nil {
			return err
		}
		if len(subs) != 2 {
			return fmt.Errorf("root subs = %d, want 2", len(subs))
		}
		// The transactional traversal must land on a base assembly.
		ba, err := b.TraverseToBase(tx, rand.New(rand.NewSource(1)))
		if err != nil {
			return err
		}
		if ba == nil {
			return fmt.Errorf("traversal found no base assembly")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllOperationsRun(t *testing.T) {
	b, th := buildSmall(t)
	rng := rand.New(rand.NewSource(3))
	for _, op := range bench7.Operations() {
		op := op
		t.Run(op.Name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				if err := op.Run(b, th, rng); err != nil {
					t.Fatalf("%s: %v", op.Name, err)
				}
			}
		})
	}
}

func TestOperationKindsCovered(t *testing.T) {
	var reads, updates, structs int
	for _, op := range bench7.Operations() {
		switch op.Kind {
		case bench7.OpRead:
			reads++
		case bench7.OpUpdate:
			updates++
		case bench7.OpStructural:
			structs++
		}
	}
	if reads < 3 || updates < 3 || structs < 3 {
		t.Fatalf("unbalanced op set: %d/%d/%d", reads, updates, structs)
	}
}

// TestDateIndexConsistency: after arbitrary ops, the date-index total still
// matches the number of indexed atomic parts.
func TestDateIndexConsistency(t *testing.T) {
	b, th := buildSmall(t)
	rng := rand.New(rand.NewSource(21))
	ops := bench7.Operations()
	for i := 0; i < 150; i++ {
		op := ops[rng.Intn(len(ops))]
		if err := op.Run(b, th, rng); err != nil {
			t.Fatalf("%s: %v", op.Name, err)
		}
	}
	err := th.Atomically(func(tx stm.Tx) error {
		indexed, err := b.AtomicIndex.Size(tx)
		if err != nil {
			return err
		}
		total := 0
		keys, err := b.DateIndex.Keys(tx)
		if err != nil {
			return err
		}
		for _, k := range keys {
			n, _, err := b.DateIndex.Get(tx, k)
			if err != nil {
				return err
			}
			total += n
		}
		if total != indexed {
			return fmt.Errorf("date index counts %d parts, atomic index has %d", total, indexed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixNames(t *testing.T) {
	if bench7.ReadDominated.String() != "read-dominated" ||
		bench7.ReadWrite.String() != "read-write" ||
		bench7.WriteDominated.String() != "write-dominated" {
		t.Fatal("mix names wrong")
	}
}

// TestWorkloadThroughHarness runs each mix briefly under the harness on
// both engines with Shrink — the full Figure 5/8 pipeline in miniature.
func TestWorkloadThroughHarness(t *testing.T) {
	for _, mix := range []bench7.Mix{bench7.ReadDominated, bench7.ReadWrite, bench7.WriteDominated} {
		mix := mix
		t.Run(mix.String(), func(t *testing.T) {
			res, err := harness.Run(harness.Config{
				Engine:    enginecfg.EngineSwiss,
				Scheduler: enginecfg.SchedShrink,
				Threads:   4,
				Duration:  60 * time.Millisecond,
			}, func() harness.Workload {
				return bench7.NewWorkload(mix, smallParams())
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Fatalf("no commits for %s", mix)
			}
		})
	}
}

func TestExtendedOperationsRun(t *testing.T) {
	b, th := buildSmall(t)
	rng := rand.New(rand.NewSource(9))
	base := len(bench7.Operations())
	ext := bench7.ExtendedOperations()
	if len(ext) != base+8 {
		t.Fatalf("extended set has %d ops, want %d", len(ext), base+8)
	}
	for _, op := range ext[base:] {
		op := op
		t.Run(op.Name, func(t *testing.T) {
			for i := 0; i < 15; i++ {
				if err := op.Run(b, th, rng); err != nil {
					t.Fatalf("%s: %v", op.Name, err)
				}
			}
		})
	}
}

func TestExtendedWorkloadThroughHarness(t *testing.T) {
	res, err := harness.Run(harness.Config{
		Engine:    enginecfg.EngineSwiss,
		Scheduler: enginecfg.SchedShrink,
		Threads:   4,
		Duration:  60 * time.Millisecond,
	}, func() harness.Workload {
		w := bench7.NewExtendedWorkload(bench7.ReadWrite, smallParams())
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits with extended operation set")
	}
}

// TestAssemblyMembershipStable: SM3/SM4 keep every base assembly populated
// and bounded.
func TestAssemblyMembershipStable(t *testing.T) {
	b, th := buildSmall(t)
	rng := rand.New(rand.NewSource(13))
	ext := bench7.ExtendedOperations()
	var grow, shrink bench7.Operation
	for _, op := range ext {
		switch op.Name {
		case "SM3-grow-assembly":
			grow = op
		case "SM4-shrink-assembly":
			shrink = op
		}
	}
	for i := 0; i < 100; i++ {
		if err := grow.Run(b, th, rng); err != nil {
			t.Fatal(err)
		}
		if err := shrink.Run(b, th, rng); err != nil {
			t.Fatal(err)
		}
	}
	err := th.Atomically(func(tx stm.Tx) error {
		for _, ba := range b.Bases {
			comps, err := stm.ReadT(tx, ba.Components)
			if err != nil {
				return err
			}
			if len(comps) < 1 || len(comps) > smallParams().ComponentsPerAssembly*2 {
				return fmt.Errorf("assembly %d has %d components", ba.ID, len(comps))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
