package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a tail read from fewer samples is one outlier, not a percentile.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two when len(xs)
// is even), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the p-th percentile of xs by nearest rank. It
// refuses a percentile with fewer than minBeyond samples beyond it, so p90
// needs at least 100 samples.
func tailPercentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p·n/100), 1-based
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d needs %d samples beyond it; %d samples leave %d",
			p, minBeyond, n, n-rank)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// geomean returns the geometric mean of xs, or NaN for no samples. Callers
// pass samples in a fixed order so that the floating-point sum, and hence
// the result, does not depend on the order ops ran in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0 (a count with nothing to divide by,
// such as regenerations on a workload that never evicts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
