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

func TestAddGet(t *testing.T) {
	tb := sample()
	if y, ok := tb.Get("base", 2); !ok || y != 150 {
		t.Fatalf("Get = %f,%v", y, ok)
	}
	if _, ok := tb.Get("missing", 1); ok {
		t.Fatal("phantom series")
	}
	if _, ok := tb.Get("base", 99); ok {
		t.Fatal("phantom point")
	}
	tb.Add("base", 2, 175) // overwrite
	if y, _ := tb.Get("base", 2); y != 175 {
		t.Fatalf("overwrite failed: %f", y)
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
