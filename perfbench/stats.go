package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so it is not reported at all.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// or an error when fewer than minBeyond samples lie beyond it. The median
// is held to the same rule.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median of xs (the mean of the middle pair for even counts); NaN when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// p50p90 reduces per-operation figures to the end-to-end median and 90th
// percentile.
func p50p90(xs []float64) (p50, p90 float64, err error) {
	if p50, err = percentile(xs, 50); err != nil {
		return 0, 0, err
	}
	if p90, err = percentile(xs, 90); err != nil {
		return 0, 0, err
	}
	return p50, p90, nil
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method), so
// the spreads the summary prints are the ones the acceptance rule uses.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
