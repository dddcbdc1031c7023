package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the exact nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least q·n samples at or below it. No
// interpolation — every reported latency is one the run really saw.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), q)-1]
}

// nearestRank is the 1-based rank of the q-quantile among n samples:
// ⌈q·n⌉, clamped to [1, n]. The small tolerance keeps a product that is
// an integer on paper (0.9 × 100) from being rounded up by its last bit.
func nearestRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestPercentile returns the highest candidate percentile that still
// has at least ten samples beyond it — past that point a "percentile" is
// one or two outliers and does not repeat. With fewer than twenty samples
// not even the median qualifies; it is returned anyway so a tiny run
// still reports something, and the caller prints the sample count.
func highestPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median of an unsorted slice (the input is not modified).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedMillis converts duration samples from several connections into
// one ascending slice of milliseconds.
func sortedMillis(groups ...[]time.Duration) []float64 {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	out := make([]float64, 0, n)
	for _, g := range groups {
		for _, d := range g {
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}
