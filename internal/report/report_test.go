package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Fig X", "threads", "tx/s")
	t.Add("base", 1, 100)
	t.Add("base", 2, 150)
	t.Add("shrink", 1, 90)
	t.Add("shrink", 2, 200)
	return t
}

// TestAddGet: Add puts a point where WriteText reads it back, in its series
// and at its x, and a second Add at the same x overwrites the first.
func TestAddGet(t *testing.T) {
	tb := sample()
	tb.Add("base", 2, 175) // overwrite
	var sb strings.Builder
	tb.WriteText(&sb)
	lines := strings.Split(sb.String(), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want a title, a header, two rows and a blank:\n%s", len(lines)-1, sb.String())
	}
	for i, want := range []string{"1 100.00 90.00", "2 175.00 200.00"} {
		if got := strings.Join(strings.Fields(lines[2+i]), " "); got != want {
			t.Errorf("row %d = %q, want %q", i+1, got, want)
		}
	}
}

func TestSeriesNamesOrdered(t *testing.T) {
	tb := sample()
	names := tb.SeriesNames()
	if len(names) != 2 || names[0] != "base" || names[1] != "shrink" {
		t.Fatalf("names = %v", names)
	}
}

func TestWriteText(t *testing.T) {
	var sb strings.Builder
	sample().WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"# Fig X", "threads", "base", "shrink", "150.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextHolesDashed(t *testing.T) {
	tb := sample()
	tb.Add("late", 2, 1)
	var sb strings.Builder
	tb.WriteText(&sb)
	if !strings.Contains(sb.String(), "-") {
		t.Fatal("missing point not dashed")
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	sample().WriteCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "# Fig X" {
		t.Fatalf("title line = %q, want the table to name itself", lines[0])
	}
	if lines[1] != "threads,base,shrink" {
		t.Fatalf("header = %q", lines[1])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d", len(lines)-2)
	}
	if !strings.HasPrefix(lines[2], "1,100.0000,90.0000") {
		t.Fatalf("row 1 = %q", lines[2])
	}
}
