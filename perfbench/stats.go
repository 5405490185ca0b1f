package main

import (
	"math"
	"sort"
)

// minTail is the fewest samples a reported percentile must have beyond
// it; with fewer, the "percentile" is really a maximum of a handful.
const minTail = 10

// percentile returns the nearest-rank p-quantile of xs and whether at
// least minTail samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return s[idx], len(s)-1-idx >= minTail
}

// median is the middle value (the mean of the two middle values for an
// even count). It is the only statistic reported for small samples.
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

// quartiles returns Q1, median and Q3 computed as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// compare table and a steadiness check written in Python agree.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
