package ssta

import (
	"math"
	"testing"

	"lvf2/internal/stats"
)

// fourPassMaxMoments is the reference for MaxMoments: each moment is its
// own Simpson pass over a closure that re-evaluates the max density.
func fourPassMaxMoments(a, b stats.Dist) stats.SampleMoments {
	sa, sb := stats.Std(a), stats.Std(b)
	lo := math.Min(a.Mean()-10*sa, b.Mean()-10*sb)
	hi := math.Max(a.Mean()+10*sa, b.Mean()+10*sb)
	pdf := func(x float64) float64 {
		return a.PDF(x)*b.CDF(x) + a.CDF(x)*b.PDF(x)
	}
	quadrature := func(f func(float64) float64) float64 {
		const n = 192
		h := (hi - lo) / n
		sum := f(lo) + f(hi)
		for i := 1; i < n; i++ {
			x := lo + float64(i)*h
			if i%2 == 1 {
				sum += 4 * f(x)
			} else {
				sum += 2 * f(x)
			}
		}
		return sum * h / 3
	}
	m1 := quadrature(func(x float64) float64 { return x * pdf(x) })
	m2 := quadrature(func(x float64) float64 { d := x - m1; return d * d * pdf(x) })
	m3 := quadrature(func(x float64) float64 { d := x - m1; return d * d * d * pdf(x) })
	m4 := quadrature(func(x float64) float64 { d := x - m1; return d * d * d * d * pdf(x) })
	sm := stats.SampleMoments{Mean: m1, Variance: m2}
	if m2 > 0 {
		sm.Skewness = m3 / math.Pow(m2, 1.5)
		sm.Kurtosis = m4 / (m2 * m2)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// cdfCounter counts CDF evaluations of the wrapped distribution.
type cdfCounter struct {
	stats.Dist
	n *int
}

func (c cdfCounter) CDF(x float64) float64 {
	*c.n++
	return c.Dist.CDF(x)
}

// TestMaxMomentsMatchesFourPass checks that the single tabulation gives
// bit-identical moments to four closure passes, for SN, SN-mixture and
// Gaussian pairs, with a quarter of the CDF evaluations.
func TestMaxMomentsMatchesFourPass(t *testing.T) {
	mix := func(w float64, a, b stats.Dist) stats.Dist {
		m, err := stats.NewMixture([]float64{w, 1 - w}, []stats.Dist{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	pairs := map[string][2]stats.Dist{
		"SN": {stats.SNFromMoments(1, 0.1, 0.6), stats.SNFromMoments(1.05, 0.15, -0.4)},
		"SN-mixture": {
			mix(0.7, stats.SNFromMoments(0.10, 0.005, 0.4), stats.SNFromMoments(0.112, 0.006, 0.8)),
			mix(0.4, stats.SNFromMoments(0.105, 0.004, -0.3), stats.SNFromMoments(0.115, 0.008, 0.9)),
		},
		"Gaussian": {stats.Normal{Mu: 1, Sigma: 0.3}, stats.Normal{Mu: 1.2, Sigma: 0.4}},
	}
	for name, p := range pairs {
		var nOne, nFour int
		got := MaxMoments(cdfCounter{p[0], &nOne}, cdfCounter{p[1], &nOne})
		want := fourPassMaxMoments(cdfCounter{p[0], &nFour}, cdfCounter{p[1], &nFour})
		g := [4]float64{got.Mean, got.Variance, got.Skewness, got.Kurtosis}
		w := [4]float64{want.Mean, want.Variance, want.Skewness, want.Kurtosis}
		for k, moment := range []string{"mean", "variance", "skewness", "kurtosis"} {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Errorf("%s %s: %v, four-pass %v", name, moment, g[k], w[k])
			}
		}
		if nOne == 0 || nFour != 4*nOne {
			t.Errorf("%s: %d CDF evaluations, four-pass %d: want a 4× cut", name, nOne, nFour)
		}
	}
}
