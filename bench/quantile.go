package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample-count rule for reported percentiles: a
// percentile is reported only when at least this many samples lie above
// it, so a tail number always rests on more than a handful of points.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
// It fails instead of falling back to a lower percentile when fewer than
// minBeyond samples lie beyond the rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%s needs %d samples beyond it, %d samples leave %d",
			pctLabel(q), minBeyond, n, max(n-rank, 0))
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// pctLabel renders 0.99 as "99" and 0.995 as "99.5".
func pctLabel(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}

// median of xs (sorted in place); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs (sorted in place)
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so spreads printed by -compare match the ones computed from the same
// values elsewhere. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0]
	}
	m := n + 1
	at := func(i int) float64 {
		// Python clamps j into [1, n-1] before taking delta, which
		// extrapolates for very small samples.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
