package main

import (
	"math"
	"sort"

	"repro/internal/load"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	return load.Percentile(sorted(xs), 0.5)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	// The epsilon keeps float error (0.999 × 10000 = 9990.000000000002)
	// from pushing the rank one past an exact boundary.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for tail latencies: the
// highest percentile on tailLadder that still has at least ten samples
// beyond it. ok is false when not even the median qualifies (fewer than
// 20 samples).
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(1-p/100) >= 10-1e-9 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}
