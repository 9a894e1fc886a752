package shrink

import (
	"strings"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/bench7"
	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/report"
	"github.com/shrink-tm/shrink/internal/schedsim"
	"github.com/shrink-tm/shrink/internal/stamp"
)

func TestVersion(t *testing.T) {
	if Version == "" {
		t.Fatal("empty version")
	}
}

// TestEndToEndFigurePipeline checks that the pieces a figure is made of
// compose (harness -> results -> report table) on one small STMBench7 cell
// per scheduler. The figures' own cells are cmd/figures' rows.
func TestEndToEndFigurePipeline(t *testing.T) {
	table := report.NewTable("mini STMBench7", "threads", "tx/s")
	for _, scheduler := range []string{enginecfg.SchedNone, enginecfg.SchedShrink} {
		res, err := harness.Run(harness.Config{
			Engine:    enginecfg.EngineSwiss,
			Scheduler: scheduler,
			Threads:   3,
			Duration:  30 * time.Millisecond,
			Cores:     4,
		}, func() harness.Workload {
			return bench7.NewWorkload(bench7.ReadWrite, bench7.Params{
				AssemblyLevels:          3,
				AssemblyFanout:          2,
				ComponentsPerAssembly:   2,
				CompositeParts:          8,
				AtomicPartsPerComposite: 6,
				ConnectionsPerAtomic:    2,
				MaxBuildDate:            50,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Fatalf("%s: no commits", scheduler)
		}
		table.Add(scheduler, res.Threads, res.Throughput)
	}
	var sb strings.Builder
	table.WriteText(&sb)
	if !strings.Contains(sb.String(), "shrink") {
		t.Fatalf("table missing series:\n%s", sb.String())
	}
}

// TestEndToEndTheoremPipeline mirrors cmd/schedsim's flow.
func TestEndToEndTheoremPipeline(t *testing.T) {
	rows := schedsim.RunTheoremSuite([]int{6}, 3)
	var serializer, restart, inaccurate bool
	for _, r := range rows {
		switch r.Scheduler {
		case "Serializer":
			serializer = r.Ratio() >= 2.9 // 6/2
		case "Restart":
			if r.OptExact && r.Ratio() > 2 {
				t.Errorf("Restart ratio %f > 2 on %s", r.Ratio(), r.Scenario)
			}
			restart = true
		case "Inaccurate":
			inaccurate = r.Ratio() >= 5.9 // 6/1
		}
	}
	if !serializer || !restart || !inaccurate {
		t.Fatalf("suite incomplete: serializer=%v restart=%v inaccurate=%v",
			serializer, restart, inaccurate)
	}
}

// TestEndToEndStampSpeedupPipeline checks a speedup of Shrink over the base
// engine on one STAMP kernel comes out positive.
func TestEndToEndStampSpeedupPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var runs [2]harness.Result
	for i, scheduler := range []string{enginecfg.SchedNone, enginecfg.SchedShrink} {
		res, err := harness.Run(harness.Config{
			Engine:    enginecfg.EngineTiny,
			Scheduler: scheduler,
			Threads:   4,
			Duration:  30 * time.Millisecond,
			Seed:      1,
		}, func() harness.Workload { return stamp.MustNew("ssca2") })
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	if s := harness.Speedup(runs[1], runs[0]); s <= 0 {
		t.Fatalf("speedup = %f", s)
	}
}
