package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n sorted
// samples. The small subtraction keeps a product that is a whole number in
// exact arithmetic (99.9 % of 10000) from rounding up past it.
func nearestRank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile under the nearest-rank rule.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// minTailSamples is how many samples must lie beyond a percentile before
// the benchmark calls it supported (choosing-metrics guide, section 1).
const minTailSamples = 10

// highestSupportedPercentile returns the highest of the usual reporting
// percentiles that still has minTailSamples samples beyond it, or 50 when
// even p90 does not.
func highestSupportedPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if samplesBeyond(n, p) >= minTailSamples {
			return p
		}
	}
	return 50
}

// geomean returns the geometric mean of the positive values in xs; 0 when
// there are none.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// window is one slice of the measured run: how many answers completed in
// it and how long it lasted. Windows close only between units of work (a
// whole round-robin cycle, or one request of a random stream), so each one
// carries the workload's full template mix.
type window struct {
	queries int
	seconds float64
}

// medianRate is the median over windows of each window's completion rate.
func medianRate(ws []window) float64 {
	rates := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.seconds > 0 {
			rates = append(rates, float64(w.queries)/w.seconds)
		}
	}
	return median(rates)
}

// ratio returns a/b, or 0 when b is 0 — for per-layer ratios whose
// denominator is legitimately zero on workloads that bypass the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
