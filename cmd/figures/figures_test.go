package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/harness"
)

func TestParseThreads(t *testing.T) {
	if counts, err := parseThreads(""); err != nil || counts != nil {
		t.Fatalf("default: %v %v, want nil for the figures' own ladders", counts, err)
	}
	if counts, err := parseThreads("1, 2,8"); err != nil || !slices.Equal(counts, []int{1, 2, 8}) {
		t.Fatalf("explicit: %v %v", counts, err)
	}
	for _, bad := range []string{"0", "zero", "x", "2,,4", "-1"} {
		if _, err := parseThreads(bad); err == nil {
			t.Errorf("threads %q accepted", bad)
		}
	}
}

func TestPickFigures(t *testing.T) {
	all, err := pick("")
	if err != nil || len(all) != len(figures) {
		t.Fatalf("default: %d figures, %v", len(all), err)
	}
	got, err := pick("7, 11")
	if err != nil || len(got) != 2 || got[0].id != 7 || got[1].id != 11 {
		t.Fatalf("7,11: %v", err)
	}
	for _, bad := range []string{"4", "fig7", "x", "7,"} {
		if _, err := pick(bad); err == nil {
			t.Errorf("figure %q accepted", bad)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"threads_junk", []string{"-threads", "junk"}},
		{"threads_0", []string{"-threads", "0"}},
		{"threads_zero", []string{"-threads", "zero"}},
		{"unknown_fig", []string{"-fig", "4"}},
		// A figure's engine, wait policy and panels are its row's.
		{"stm_flag", []string{"-stm", "tiny"}},
		{"wait_flag", []string{"-wait", "busy"}},
		{"mix_flag", []string{"-mix", "r"}},
		{"kernels_flag", []string{"-kernels", "ssca2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err == nil {
				t.Errorf("%v accepted", c.args)
			}
			if out.Len() != 0 {
				t.Errorf("%v printed before failing:\n%s", c.args, out.String())
			}
		})
	}
}

func TestSeriesNaming(t *testing.T) {
	if got := seriesName("swiss", "none"); got != "swiss" {
		t.Fatalf("base name = %q", got)
	}
	if got := seriesName("tiny", "shrink"); got != "shrink-tiny" {
		t.Fatalf("shrink name = %q", got)
	}
}

// TestThreadLadders holds each row to the paper's x-axis: 1–24 threads for
// STMBench7 and the tree, 2–24 for Fig. 3, and for STAMP three underloaded
// (2–8) and three overloaded (16–64) counts on the paper's 8 cores.
func TestThreadLadders(t *testing.T) {
	var ids []int
	for _, f := range figures {
		ids = append(ids, f.id)
		lo, hi := 1, 24
		switch f.metric {
		case speedup:
			if !slices.Equal(f.paper, []int{2, 4, 8, 16, 32, 64}) {
				t.Errorf("fig. %d: STAMP ladder %v", f.id, f.paper)
			}
			lo, hi = 2, 64
		case accuracy:
			lo = 2
		}
		if f.paper[0] != lo || f.paper[len(f.paper)-1] != hi || !slices.IsSorted(f.paper) {
			t.Errorf("fig. %d: ladder %v, want %d..%d ascending", f.id, f.paper, lo, hi)
		}
		if len(f.ci) == 0 || len(f.ci) >= len(f.paper) {
			t.Errorf("fig. %d: CI thread counts %v are not a smaller set", f.id, f.ci)
		}
	}
	if !slices.Equal(ids, []int{3, 5, 6, 7, 8, 9, 10, 11}) {
		t.Fatalf("figures %v, want the paper's 3 and 5-11 once each, in order", ids)
	}
}

// TestEveryFigureAtMiniatureScale runs every cell of every row at two
// threads for 15 ms: every run commits, a speedup is positive and an
// accuracy lies in [0, 1].
func TestEveryFigureAtMiniatureScale(t *testing.T) {
	at := harness.Config{Threads: 2, Duration: 15 * time.Millisecond, Cores: 2}
	for _, f := range figures {
		t.Run(fmt.Sprintf("fig%d", f.id), func(t *testing.T) {
			for _, p := range f.panels {
				for _, s := range f.scheds {
					runs, err := f.cell(p, s, at, 1)
					if err != nil {
						t.Fatalf("%s %s: %v", p.name, s, err)
					}
					for _, r := range runs {
						if r.Commits == 0 {
							t.Errorf("%s %s: no commits", p.name, r.Scheduler)
						}
					}
					for _, v := range f.metric.values(runs) {
						if f.metric == speedup && v <= -1 || f.metric == accuracy && (v < 0 || v > 100) {
							t.Errorf("%s %s: %s %.2f", p.name, s, f.metric.units(), v)
						}
					}
				}
			}
		})
	}
}

// TestCommandPrintsNamedTables runs the command on a throughput and an
// accuracy figure and checks the tables by title, header and thread counts.
func TestCommandPrintsNamedTables(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "3,11", "-threads", "1,2", "-dur", "1ms", "-cores", "2", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"# Read set prediction accuracy on STMBench7 (%)",
		"threads,read-dominated,read-write,write-dominated",
		"1,", "2,", "",
		"# Write set prediction accuracy on STMBench7 (%)",
		"threads,read-dominated,read-write,write-dominated",
		"1,", "2,", "",
		"# Red-black tree, 20% updates, range 16384, on tiny (busy waiting)",
		"threads,tiny,shrink-tiny",
		"1,", "2,", "",
		"# Red-black tree, 70% updates, range 16384, on tiny (busy waiting)",
		"threads,tiny,shrink-tiny",
		"1,", "2,", "",
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want)+1, out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) || (w == "" && lines[i] != "") {
			t.Fatalf("line %d = %q, want %q…:\n%s", i+1, lines[i], w, out.String())
		}
	}
}

// BenchmarkFigures runs every row's cells at its CI-scale thread counts,
// 30 ms a run on 8 emulated cores, and reports what the figure plots:
// BenchmarkFigures/fig<id>/<panel>/<scheduler>/t<threads>.
func BenchmarkFigures(b *testing.B) {
	for _, f := range figures {
		for _, p := range f.panels {
			for _, s := range f.scheds {
				for _, n := range f.ci {
					b.Run(fmt.Sprintf("fig%d/%s/%s/t%d", f.id, p.name, s, n), func(b *testing.B) {
						at := harness.Config{Threads: n, Duration: 30 * time.Millisecond, Cores: 8}
						units := f.metric.units()
						sum := make([]float64, len(units))
						for range b.N {
							runs, err := f.cell(p, s, at, 1)
							if err != nil {
								b.Fatal(err)
							}
							for i, v := range f.metric.values(runs) {
								sum[i] += v
							}
						}
						for i, u := range units {
							b.ReportMetric(sum[i]/float64(b.N), u)
						}
					})
				}
			}
		}
	}
}
