package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle of vals (mean of the two middle values when
// the count is even). vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(max(len(vals), 1))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quartiles matches Python's statistics.quantiles(vals, n=4) (the
// default "exclusive" method), which is what the acceptance check of this
// benchmark uses; it needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relIQR is the distance between the first and third quartile as a share
// of the median: the spread the benchmark's bounds are set against.
func relIQR(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile is the exact nearest-rank p-quantile (0 < p <= 1) of sorted:
// the smallest sample with at least p of the samples at or below it.
func percentile[T any](sorted []T, p float64) T {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantile is percentile on a sorted copy of vals; 0 when there are none.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return percentile(sortedCopy(vals), p)
}

// sortedSamples merges the callers' raw samples into one sorted slice.
func sortedSamples(per [][]uint32) []uint32 {
	var all []uint32
	for _, s := range per {
		all = append(all, s...)
	}
	slices.Sort(all)
	return all
}
