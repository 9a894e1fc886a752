// Package trace provides lightweight measurement primitives for the
// experiment harness: power-of-two latency histograms and per-transaction
// retry distributions. The paper reports only throughput; these make the
// underlying dynamics (how long transactions wait, how many times they
// retry, how serialized the system is) visible, which is what the analysis
// sections of EXPERIMENTS.md are based on.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free power-of-two histogram. Bucket i counts the
// values whose binary length is i, that is 2^(i-1) <= v < 2^i, so 2^i is
// an upper bound for everything in it (what Quantile reports); bucket 0
// holds 0 and 1, bucket 1 stays empty, and bucket 63 also takes the
// values of length 64. It is safe for concurrent Observe and Snapshot.
type Histogram struct {
	buckets [64]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// bucketOf returns the bucket a value is counted in.
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	return min(bits.Len64(v), 63)
}

// Observe records a non-negative value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(uint64(d.Microseconds()))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Max returns the maximum observed value.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1), using
// bucket upper edges.
func (h *Histogram) Quantile(q float64) uint64 {
	if q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := 0; i < 64; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 1
			}
			return 1 << uint(i)
		}
	}
	return h.max.Load()
}

// String renders a compact summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p99<=%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Bars renders an ASCII bar chart of the non-empty buckets.
func (h *Histogram) Bars(width int) string {
	if width <= 0 {
		width = 40
	}
	var rows []string
	var peak uint64
	lo, hi := -1, -1
	for i := 0; i < 64; i++ {
		c := h.buckets[i].Load()
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > peak {
				peak = c
			}
		}
	}
	if lo < 0 {
		return "(empty)\n"
	}
	for i := lo; i <= hi; i++ {
		c := h.buckets[i].Load()
		bar := int(float64(c) / float64(peak) * float64(width))
		rows = append(rows, fmt.Sprintf("%10d | %-*s %d",
			uint64(1)<<uint(i), width, strings.Repeat("#", bar), c))
	}
	return strings.Join(rows, "\n") + "\n"
}

// RetryDist accumulates the distribution of retries-per-transaction: how
// many Atomically calls needed 0, 1, 2, ... aborts before committing. It is
// the direct visualization of "wasted work" the paper argues about.
type RetryDist struct {
	hist Histogram
}

// Record notes that one transaction committed after `aborts` aborts.
func (r *RetryDist) Record(aborts int) {
	if aborts < 0 {
		aborts = 0
	}
	r.hist.Observe(uint64(aborts))
}

// Transactions returns the number of recorded commits.
func (r *RetryDist) Transactions() uint64 { return r.hist.Count() }

// MeanRetries returns the mean aborts per committed transaction.
func (r *RetryDist) MeanRetries() float64 { return r.hist.Mean() }

// WastedWorkRatio returns aborts / (aborts + commits): the fraction of
// attempts that were thrown away.
func (r *RetryDist) WastedWorkRatio() float64 {
	c := float64(r.hist.Count())
	a := float64(r.hist.sum.Load())
	if c+a == 0 {
		return 0
	}
	return a / (a + c)
}

// P99Retries returns an upper bound on the 99th-percentile retry count.
func (r *RetryDist) P99Retries() uint64 { return r.hist.Quantile(0.99) }

// Summary renders one line.
func (r *RetryDist) Summary() string {
	return fmt.Sprintf("tx=%d meanRetries=%.2f wasted=%.1f%% p99<=%d",
		r.Transactions(), r.MeanRetries(), r.WastedWorkRatio()*100, r.P99Retries())
}

// Series collects (x, y) points and summarizes them; a tiny helper for
// ad-hoc analysis in tests and tools.
type Series struct {
	xs []float64
	ys []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.xs) }

// MeanY returns the mean of the y values.
func (s *Series) MeanY() float64 {
	if len(s.ys) == 0 {
		return 0
	}
	sum := 0.0
	for _, y := range s.ys {
		sum += y
	}
	return sum / float64(len(s.ys))
}

// MedianY returns the median of the y values.
func (s *Series) MedianY() float64 {
	if len(s.ys) == 0 {
		return 0
	}
	ys := append([]float64(nil), s.ys...)
	sort.Float64s(ys)
	return ys[len(ys)/2]
}

// Slope returns the least-squares slope dy/dx (0 with fewer than 2 points),
// used by tests to assert trends ("throughput decreases with threads").
func (s *Series) Slope() float64 {
	n := float64(len(s.xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range s.xs {
		sx += s.xs[i]
		sy += s.ys[i]
		sxx += s.xs[i] * s.xs[i]
		sxy += s.xs[i] * s.ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
