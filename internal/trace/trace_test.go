package trace

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if got := h.Mean(); got != 203 {
		t.Fatalf("mean = %f", got)
	}
	if q := h.Quantile(0.5); q > 8 {
		t.Fatalf("p50 = %d", q)
	}
	if q := h.Quantile(1); q < 1000 && q != 1024 {
		t.Fatalf("p100 = %d", q)
	}
	if !strings.Contains(h.String(), "n=5") {
		t.Fatalf("summary = %q", h.String())
	}
}

// TestHistogramBucketEdges pins the bucket of every power-of-two edge:
// a value lands in the bucket of its binary length, whose upper edge
// 2^i is what Quantile reports for it.
func TestHistogramBucketEdges(t *testing.T) {
	type edge struct {
		v      uint64
		bucket int
	}
	edges := []edge{{0, 0}, {1, 0}, {2, 2}, {3, 2}, {math.MaxUint64, 63}}
	for k := 2; k < 64; k++ {
		edges = append(edges, edge{1<<k - 1, k}, edge{1 << k, min(k+1, 63)})
	}
	for _, e := range edges {
		if got := bucketOf(e.v); got != e.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", e.v, got, e.bucket)
		}
		var h Histogram
		h.Observe(e.v)
		if got := h.buckets[e.bucket].Load(); got != 1 {
			t.Errorf("Observe(%d): bucket %d holds %d, want 1", e.v, e.bucket, got)
		}
		if e.bucket > 0 && e.bucket < 63 {
			if q := h.Quantile(1); q <= e.v || q/2 > e.v {
				t.Errorf("Observe(%d): Quantile(1) = %d is not its bucket's upper edge", e.v, q)
			}
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	prop := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.Observe(uint64(v))
		}
		prev := uint64(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const threads, per = 4, 1000
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(uint64(j))
			}
		}()
	}
	wg.Wait()
	if h.Count() != threads*per {
		t.Fatalf("count = %d, want %d", h.Count(), threads*per)
	}
	if h.Max() != per-1 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	if got := h.Bars(10); got != "(empty)\n" {
		t.Fatalf("empty bars = %q", got)
	}
	h.Observe(0)
	h.Observe(1)
	if h.Quantile(0.01) != 1 {
		t.Fatalf("tiny quantile = %d", h.Quantile(0.01))
	}
	if h.Quantile(-1) != 0 {
		t.Fatal("negative quantile should be 0")
	}
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	bars := h.Bars(0)
	if !strings.Contains(bars, "#") {
		t.Fatalf("bars missing marks:\n%s", bars)
	}
}

func TestRetryDist(t *testing.T) {
	var r RetryDist
	r.Record(0)
	r.Record(0)
	r.Record(2)
	r.Record(-5) // clamped to 0
	if r.Transactions() != 4 {
		t.Fatalf("tx = %d", r.Transactions())
	}
	if got := r.MeanRetries(); got != 0.5 {
		t.Fatalf("mean = %f", got)
	}
	// 2 aborts, 4 commits: wasted = 2/6.
	if got := r.WastedWorkRatio(); got < 0.33 || got > 0.34 {
		t.Fatalf("wasted = %f", got)
	}
	if !strings.Contains(r.Summary(), "tx=4") {
		t.Fatalf("summary = %q", r.Summary())
	}
	var empty RetryDist
	if empty.WastedWorkRatio() != 0 {
		t.Fatal("empty wasted ratio not 0")
	}
}
