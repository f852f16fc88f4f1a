package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the tail metric may report, highest
// first.  A fixed ladder keeps the reported percentile the same from run
// to run when the sample count moves a little.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail returns the highest ladder percentile that still leaves at least
// ten samples above it, with its value and the number of samples beyond.
func tail(sorted []float64) (value, pct float64, beyond int) {
	n := len(sorted)
	for _, p := range tailLadder {
		if rank := nearestRank(p, n); n-rank >= 10 {
			return percentile(sorted, p), p, n - rank
		}
	}
	return percentile(sorted, 50), 50, n - nearestRank(50, n)
}

// nearestRank is the 1-based rank of the p-th percentile of n values;
// the epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
