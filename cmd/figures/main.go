// Command figures prints the paper's evaluation figures as tables: Fig. 3
// (Shrink's prediction accuracy), Figs. 5, 8 and 9 (STMBench7 throughput),
// Figs. 6 and 10 (STAMP speedups) and Figs. 7 and 11 (red-black tree
// throughput). Each figure is one row of the list in figures.go, which
// fixes its engine, wait policy, schedulers, workloads and thread ladder; a
// variant outside the paper is an edit of its row. BenchmarkFigures runs
// the same rows at CI scale.
//
// Usage:
//
//	figures                          every figure at the paper's thread counts
//	figures -fig 7,11 -reps 3 -dur 500ms
//	figures -fig 6 -threads 16,32 -csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/shrink-tm/shrink/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		figs    = fs.String("fig", "", "comma-separated figure numbers (default: all)")
		threads = fs.String("threads", "", "comma-separated thread counts (default: each figure's paper ladder)")
		dur     = fs.Duration("dur", 200*time.Millisecond, "measurement duration per run")
		cores   = fs.Int("cores", 8, "emulated core count (GOMAXPROCS)")
		reps    = fs.Int("reps", 1, "runs per cell; the median is reported")
		csv     = fs.Bool("csv", false, "emit CSV instead of text tables")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: figures [flags]\n\nfigures:")
		for _, f := range figures {
			fmt.Fprintf(fs.Output(), "  %2d  %s\n", f.id, f.title)
		}
		fmt.Fprintln(fs.Output(), "\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	chosen, err := pick(*figs)
	if err != nil {
		return err
	}
	counts, err := parseThreads(*threads)
	if err != nil {
		return err
	}
	for _, f := range chosen {
		ladder := counts
		if ladder == nil {
			ladder = f.paper
		}
		tables, err := f.tables(ladder, harness.Config{Duration: *dur, Cores: *cores}, *reps)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if *csv {
				t.WriteCSV(out)
				fmt.Fprintln(out)
			} else {
				t.WriteText(out)
			}
		}
	}
	return nil
}

// pick returns the figures a -fig list names, in its order; the empty list
// names them all.
func pick(list string) ([]figure, error) {
	if list == "" {
		return figures, nil
	}
	var out []figure
next:
	for _, p := range strings.Split(list, ",") {
		for _, f := range figures {
			if strings.TrimSpace(p) == strconv.Itoa(f.id) {
				out = append(out, f)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown figure %q (run -h for the list)", p)
	}
	return out, nil
}

// parseThreads parses a -threads list; the empty list is nil.
func parseThreads(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
