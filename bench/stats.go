package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the figure is a property of a handful of outliers,
// not of the distribution.
const minBeyond = 10

// candidatePercentiles are tried from the top by highestPercentile.
var candidatePercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile reads the p-th percentile (0..100) off an ascending slice by
// the nearest-rank rule. It returns 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// rankOf is the nearest-rank position (from 1) of the p-th percentile of
// n samples; the epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the p-th percentile.
func supported(n int, p float64) bool {
	return n-rankOf(n, p) >= minBeyond
}

// highestPercentile picks the highest candidate percentile, no higher
// than atMost, that n samples support; with too few samples for any of
// them it falls back to the median.
func highestPercentile(n int, atMost float64) float64 {
	for _, p := range candidatePercentiles {
		if p <= atMost && supported(n, p) {
			return p
		}
	}
	return 50
}

// medianF is the median of xs (mean of the two middle values for an even
// count); 0 for an empty slice.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs,
// n=4) does (the exclusive method), so the spreads -compare prints are the
// ones the acceptance rule is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped to 1..n-1, then linearly
		// interpolated (extrapolated where the clamp moved it)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// usOf converts nanoseconds to microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }
