package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 50},      // 5 beyond p90
		{99, 50},      // 9 beyond p90
		{100, 90},     // exactly 10 beyond p90
		{140, 90},     // the issue's sample count: 14 beyond p90, 7 beyond p95
		{200, 95},     // 10 beyond p95
		{1000, 99},    // 10 beyond p99
		{10000, 99.9}, // 10 beyond p99.9
	} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("highestSupportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := samplesBeyond(len(xs), 90); got != 10 {
		t.Errorf("samples beyond p90 of 100 = %d, want 10", got)
	}
}

func TestGeomeanWeighsTemplatesEqually(t *testing.T) {
	// A 70 ms template counts as much as a 300 ms one: halving either
	// moves the geomean by the same factor.
	base := geomean([]float64{70, 300})
	if want := math.Sqrt(70 * 300); math.Abs(base-want) > 1e-9 {
		t.Fatalf("geomean = %g, want %g", base, want)
	}
	fastHalved, slowHalved := geomean([]float64{35, 300}), geomean([]float64{70, 150})
	if math.Abs(fastHalved-slowHalved) > 1e-9 {
		t.Errorf("halving the fast template gave %g, the slow one %g; want equal", fastHalved, slowHalved)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
}

func TestMedianOfWindowsIgnoresOneDisturbedWindow(t *testing.T) {
	ws := []window{{30, 3}, {31, 3.1}, {10, 3}, {30, 3}, {33, 3}}
	if got := medianRate(ws); got != 10 {
		t.Errorf("median window rate = %g, want 10 (the disturbed window must not move it)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}
