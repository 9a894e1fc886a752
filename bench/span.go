package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program under test is instrumented). Spans
// of one generated op share Op; Parent is the span that caused this one, 0
// for a root. Times are nanoseconds since the run began.
//
// Spans named loadgen.* and their children are taken live, on one op in
// traceSampleEvery of the traced load phases. The rest are replays: the
// sampled ops run again, one caller at a time, through each lower layer's
// public functions, child after parent rather than inside it — the wire
// server cannot be interposed, so this is how a wire op's time is split
// between the layers below it. A layer's self time is its span minus its
// children's.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceSampleEvery is the share of live ops that get spans and are kept
// for replay.
const traceSampleEvery = 64

// spanBuf is one goroutine's span store: no locks, bounded, written out
// when the run ends.
type spanBuf struct {
	idx   int
	base  time.Time
	spans []span
	open  []int // indexes into spans of the open spans, innermost last; -1 once full
}

// spanBufLimit bounds one buffer; past it spans are dropped, so tracing
// never becomes a memory workload of its own.
const spanBufLimit = 1 << 16

func newSpanBuf(idx int, base time.Time) *spanBuf {
	return &spanBuf{idx: idx, base: base}
}

func (b *spanBuf) begin(name string, op uint64) {
	if len(b.spans) == spanBufLimit {
		b.open = append(b.open, -1)
		return
	}
	var parent int64
	if n := len(b.open); n > 0 && b.open[n-1] >= 0 {
		parent = b.spans[b.open[n-1]].ID
	}
	b.open = append(b.open, len(b.spans))
	b.spans = append(b.spans, span{
		ID: int64(b.idx+1)<<32 | int64(len(b.spans)+1), Parent: parent, Name: name, Op: op,
		Start: int64(time.Since(b.base)),
	})
}

func (b *spanBuf) end() {
	now := int64(time.Since(b.base))
	i := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	if i >= 0 {
		b.spans[i].End = now
	}
}

// timed records fn as one span.
func (b *spanBuf) timed(name string, op uint64, fn func()) {
	b.begin(name, op)
	fn()
	b.end()
}

// durations returns the lengths in nanoseconds of every span called one
// of names; with self set, each less the lengths of its direct children.
func (b *spanBuf) durations(self bool, names ...string) []float64 {
	child := make(map[int64]int64)
	if self {
		for i := range b.spans {
			if p := b.spans[i].Parent; p != 0 {
				child[p] += b.spans[i].End - b.spans[i].Start
			}
		}
	}
	var d []float64
	for i := range b.spans {
		if s := &b.spans[i]; slices.Contains(names, s.Name) {
			d = append(d, float64(s.End-s.Start-child[s.ID]))
		}
	}
	return d
}

// writeSpans writes every span as one JSON array, one span per line.
func writeSpans(path string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[")
	first := true
	for _, b := range bufs {
		for i := range b.spans {
			line, err := json.Marshal(&b.spans[i])
			if err != nil {
				f.Close()
				return err
			}
			if !first {
				w.WriteString(",")
			}
			first = false
			w.WriteString("\n")
			w.Write(line)
		}
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
