package main

import (
	"fmt"

	"github.com/shrink-tm/shrink/internal/bench7"
	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/microbench"
	"github.com/shrink-tm/shrink/internal/report"
	"github.com/shrink-tm/shrink/internal/stamp"
	"github.com/shrink-tm/shrink/internal/stm"
)

// A figure is one of the paper's evaluation figures and the one place its
// cells are chosen: every scheduler of scheds runs every panel at every
// thread count of a ladder on the figure's engine and wait policy.
type figure struct {
	id     int
	title  string
	engine string
	wait   stm.WaitPolicy
	scheds []string
	panels []panel
	paper  []int // the paper's thread counts, which the command runs
	ci     []int // the smaller set BenchmarkFigures runs
	metric metric
}

// A panel is one workload of a figure: its name is its series in a speedup
// or accuracy figure, and its title heads its table in a throughput figure.
type panel struct {
	name, title string
	new         func() harness.Workload
}

// What a figure plots, and how its values fall into tables and series.
type metric int

const (
	// Committed transactions per second: a table per panel, a series per
	// scheduler.
	txPerSec metric = iota
	// Shrink's speedup over the base system, minus one: one table, a series
	// per panel.
	speedup
	// Shrink's read- and write-set prediction accuracy in percent: a table
	// for each, a series per panel.
	accuracy
)

var (
	// The paper's x-axis for STMBench7 and the red-black tree on its 8-core
	// machine, and Fig. 3's, which starts at two threads.
	ladder24   = []int{1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24}
	accuracy24 = []int{2, 3, 4, 6, 8, 10, 12, 16, 20, 24}
	// STAMP's: underloaded at 2, 4 and 8 threads, overloaded at 16, 32, 64.
	stamp64 = []int{2, 4, 8, 16, 32, 64}
)

const (
	none, pool, shrink, ats = enginecfg.SchedNone, enginecfg.SchedPool, enginecfg.SchedShrink, enginecfg.SchedATS
	swiss, tiny             = enginecfg.EngineSwiss, enginecfg.EngineTiny
)

// figures is the paper's evaluation, in its order.
var figures = []figure{
	{id: 3, title: "Shrink's prediction accuracy on STMBench7 (SwissTM)",
		engine: swiss, wait: stm.WaitPreemptive, scheds: []string{shrink},
		panels: bench7Panels(), paper: accuracy24, ci: []int{8}, metric: accuracy},
	{id: 5, title: "STMBench7 on SwissTM, preemptive waiting",
		engine: swiss, wait: stm.WaitPreemptive, scheds: []string{none, pool, shrink, ats},
		panels: bench7Panels(), paper: ladder24, ci: []int{4, 16}},
	{id: 6, title: "Shrink-SwissTM's speedup on STAMP",
		engine: swiss, wait: stm.WaitPreemptive, scheds: []string{shrink},
		panels: stampPanels(), paper: stamp64, ci: []int{8, 32}, metric: speedup},
	{id: 7, title: "Red-black tree on SwissTM",
		engine: swiss, wait: stm.WaitPreemptive, scheds: []string{none, shrink, ats},
		panels: treePanels(), paper: ladder24, ci: []int{16}},
	{id: 8, title: "STMBench7 on TinySTM",
		engine: tiny, wait: stm.WaitBusy, scheds: []string{none, shrink},
		panels: bench7Panels(), paper: ladder24, ci: []int{4, 24}},
	{id: 9, title: "STMBench7 on SwissTM, busy waiting",
		engine: swiss, wait: stm.WaitBusy, scheds: []string{none, shrink},
		panels: bench7Panels(), paper: ladder24, ci: []int{16}},
	{id: 10, title: "Shrink-TinySTM's speedup on STAMP",
		engine: tiny, wait: stm.WaitBusy, scheds: []string{shrink},
		panels: stampPanels(), paper: stamp64, ci: []int{32}, metric: speedup},
	{id: 11, title: "Red-black tree on TinySTM",
		engine: tiny, wait: stm.WaitBusy, scheds: []string{none, shrink},
		panels: treePanels(), paper: ladder24, ci: []int{16}},
}

// bench7Panels are STMBench7's three mixes at the default geometry.
func bench7Panels() []panel {
	var ps []panel
	for _, m := range []bench7.Mix{bench7.ReadDominated, bench7.ReadWrite, bench7.WriteDominated} {
		ps = append(ps, panel{m.String(), "STMBench7 " + m.String(),
			func() harness.Workload { return bench7.NewWorkload(m, bench7.Params{}) }})
	}
	return ps
}

// stampPanels are the ten STAMP kernels.
func stampPanels() []panel {
	var ps []panel
	for _, k := range stamp.Names() {
		ps = append(ps, panel{k, k, func() harness.Workload { return stamp.MustNew(k) }})
	}
	return ps
}

// treePanels are the integer-set tree over 16,384 keys at 20 % and 70 %
// updates.
func treePanels() []panel {
	const keys = 16384
	var ps []panel
	for _, u := range []int{20, 70} {
		ps = append(ps, panel{fmt.Sprintf("%dpct", u),
			fmt.Sprintf("Red-black tree, %d%% updates, range %d,", u, keys),
			func() harness.Workload { return microbench.NewRBTree(keys, u) }})
	}
	return ps
}

// cell runs panel p under scheduler s at the threads, duration and cores of
// at, reporting the median of reps runs, and returns its runs: the one run,
// or for a speedup the base system's and then Shrink's.
func (f figure) cell(p panel, s string, at harness.Config, reps int) ([]harness.Result, error) {
	scheds := []string{s}
	if f.metric == speedup {
		scheds = []string{none, s}
	}
	var runs []harness.Result
	for _, s := range scheds {
		cfg := at
		cfg.Engine, cfg.Scheduler, cfg.Wait, cfg.Seed = f.engine, s, f.wait, 1
		cfg.TrackAccuracy = f.metric == accuracy
		res, err := harness.RunMedian(cfg, reps, p.new)
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	return runs, nil
}

// values returns what a figure plots for a cell's runs, one value per unit.
func (m metric) values(runs []harness.Result) []float64 {
	switch m {
	case speedup:
		return []float64{harness.Speedup(runs[1], runs[0]) - 1}
	case accuracy:
		return []float64{runs[0].ReadAccuracy * 100, runs[0].WriteAccuracy * 100}
	}
	return []float64{runs[0].Throughput}
}

// units names the values, as a benchmark reports them.
func (m metric) units() []string {
	switch m {
	case speedup:
		return []string{"speedup-1"}
	case accuracy:
		return []string{"readAcc%", "writeAcc%"}
	}
	return []string{"tx/s"}
}

// tables measures every cell of f at the given thread counts and returns
// the figure's tables.
func (f figure) tables(threads []int, at harness.Config, reps int) ([]*report.Table, error) {
	wait := enginecfg.WaitLabel(f.wait, f.engine)
	var tables []*report.Table
	switch f.metric {
	case speedup:
		tables = append(tables, report.NewTable(
			fmt.Sprintf("STAMP speedup-1 of Shrink-%s over base %s (%s waiting)", f.engine, f.engine, wait),
			"threads", "speedup - 1"))
	case accuracy:
		tables = append(tables,
			report.NewTable("Read set prediction accuracy on STMBench7 (%)", "threads", "accuracy %"),
			report.NewTable("Write set prediction accuracy on STMBench7 (%)", "threads", "accuracy %"))
	}
	for _, p := range f.panels {
		if f.metric == txPerSec {
			tables = append(tables, report.NewTable(fmt.Sprintf("%s on %s (%s waiting)", p.title, f.engine, wait),
				"threads", "committed tx/s"))
		}
		for _, s := range f.scheds {
			for _, n := range threads {
				at.Threads = n
				runs, err := f.cell(p, s, at, reps)
				if err != nil {
					return nil, fmt.Errorf("fig. %d, %s, %s, %d threads: %w", f.id, p.name, s, n, err)
				}
				for i, v := range f.metric.values(runs) {
					if f.metric == txPerSec {
						tables[len(tables)-1].Add(seriesName(f.engine, s), n, v)
					} else {
						tables[i].Add(p.name, n, v)
					}
				}
			}
		}
	}
	return tables, nil
}

// seriesName names a throughput series: the engine for the base system,
// "scheduler-engine" otherwise.
func seriesName(engine, scheduler string) string {
	if scheduler == none {
		return engine
	}
	return scheduler + "-" + engine
}
