package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p percent of
// the samples at or below it. It is an actual sample, never an
// interpolation or a bucket edge. NaN when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice. NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p50 is the median sample of xs, 0 when there is none: a per-layer
// metric a workload does not exercise reads 0.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sortedCopy(xs), 50)
}

// windowPercentiles splits samples, taken in arrival order, into
// windows equal windows and returns each window's p-th percentile.
// perWindow is the number of samples a window holds (a remainder too
// short for a window is left out).
func windowPercentiles(samples []float64, windows int, p float64) (out []float64, perWindow int) {
	if windows < 1 {
		return nil, 0
	}
	perWindow = len(samples) / windows
	if perWindow < 1 {
		return nil, perWindow
	}
	for w := 0; w < windows; w++ {
		win := sortedCopy(samples[w*perWindow : (w+1)*perWindow])
		out = append(out, percentile(win, p))
	}
	return out, perWindow
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
