// Package report assembles experiment results into the tables and data
// series behind the paper's figures: per-thread-count series with one
// column per system variant, printable as aligned text or CSV (ready for
// gnuplot, which the original paper's plots used).
package report

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Series is a named y-column over a shared integer x-axis (thread counts).
type Series struct {
	Name   string
	Points map[int]float64
}

// Table is one figure: an x-axis label plus several series.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	series []*Series
}

// NewTable returns an empty table.
func NewTable(title, xLabel, yLabel string) *Table {
	return &Table{Title: title, XLabel: xLabel, YLabel: yLabel}
}

// Add records one measurement.
func (t *Table) Add(series string, x int, y float64) {
	for _, s := range t.series {
		if s.Name == series {
			s.Points[x] = y
			return
		}
	}
	t.series = append(t.series, &Series{Name: series, Points: map[int]float64{x: y}})
}

// SeriesNames returns the series names in insertion order.
func (t *Table) SeriesNames() []string {
	out := make([]string, len(t.series))
	for i, s := range t.series {
		out[i] = s.Name
	}
	return out
}

// xs returns the sorted union of x values.
func (t *Table) xs() []int {
	set := map[int]bool{}
	for _, s := range t.series {
		for x := range s.Points {
			set[x] = true
		}
	}
	out := make([]int, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// WriteText renders an aligned text table.
func (t *Table) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintf(w, "%-10s", t.XLabel)
	for _, s := range t.series {
		fmt.Fprintf(w, " %16s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range t.xs() {
		fmt.Fprintf(w, "%-10d", x)
		for _, s := range t.series {
			if y, ok := s.Points[x]; ok {
				fmt.Fprintf(w, " %16.2f", y)
			} else {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV under a "# title" line (a comment to
// gnuplot), so that tables printed one after another name themselves.
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	cols := append([]string{t.XLabel}, t.SeriesNames()...)
	fmt.Fprintln(w, strings.Join(cols, ","))
	for _, x := range t.xs() {
		row := []string{strconv.Itoa(x)}
		for _, s := range t.series {
			if y, ok := s.Points[x]; ok {
				row = append(row, strconv.FormatFloat(y, 'f', 4, 64))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}
