package stats

import (
	"math"
)

// Dist is a univariate continuous probability distribution.
type Dist interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Mean returns the first moment.
	Mean() float64
	// Variance returns the second central moment.
	Variance() float64
}

// Sampler is implemented by distributions that can draw random variates.
// Source abstracts the random stream so both math/rand and the project's
// deterministic Monte-Carlo RNG can be used.
type Sampler interface {
	Sample(src Source) float64
}

// Source is the random-number source consumed by Sample methods.
// *math/rand.Rand satisfies it.
type Source interface {
	Float64() float64
	NormFloat64() float64
}

// Std returns the standard deviation of d.
func Std(d Dist) float64 { return math.Sqrt(d.Variance()) }

// Quantile numerically inverts d.CDF at p ∈ (0,1): Quantiles for one
// probability.
func Quantile(d Dist, p float64) float64 {
	return Quantiles(d, []float64{p})[0]
}

// Quantiles inverts d.CDF at every ps[i], which should ascend; entries
// outside (0,1) come back NaN, and the others are the mean when the
// distribution has no spread. One bracket is derived from the mean ± 8
// standard deviations, widened by that step until it encloses every p.
// Each root is then found by safeguarded Newton on d.PDF, with bisection
// whenever a step leaves the bracket or fails to halve; along ascending
// ps the search starts from the previous root, whose F(lo) < p bound it
// keeps. A root is the midpoint of a bracket F(lo) < p ≤ F(hi) narrower
// than 1e-13·(1+|lo|), the bisection stopping rule, and the outputs for
// ascending ps are non-decreasing.
func Quantiles(d Dist, ps []float64) []float64 {
	xs := make([]float64, len(ps))
	m, s := d.Mean(), Std(d)
	pmin, pmax := 1.0, 0.0
	for i, p := range ps {
		if p <= 0 || p >= 1 || math.IsNaN(p) {
			xs[i] = math.NaN()
			continue
		}
		xs[i] = m
		pmin, pmax = math.Min(pmin, p), math.Max(pmax, p)
	}
	if pmin > pmax || s <= 0 || math.IsNaN(s) {
		return xs
	}
	bl, bh := m-8*s, m+8*s
	for i := 0; d.CDF(bl) > pmin && i < 64; i++ {
		bl -= 8 * s
	}
	for i := 0; d.CDF(bh) < pmax && i < 64; i++ {
		bh += 8 * s
	}
	pPrev, lo, x, f := 2.0, bl, m, 0.0
	for i, p := range ps {
		if math.IsNaN(xs[i]) {
			continue
		}
		xPrev := x
		if p >= pPrev {
			x += (p - pPrev) / f // Newton step from the previous root
		} else {
			lo, x = bl, m+s*StdNormQuantile(p)
		}
		hi, step := bh, bh-lo
		for it := 0; it < 200; it++ {
			if !(x > lo && x < hi) {
				x = 0.5 * (lo + hi)
			}
			c := d.CDF(x)
			if c < p {
				lo = x
			} else {
				hi = x
			}
			tol := 1e-13 * (1 + math.Abs(lo))
			if hi-lo <= tol {
				break
			}
			f = d.PDF(x)
			dx := (p - c) / f
			switch {
			case math.Abs(dx) < tol/2 && step >= tol:
				// Converged: land just past the root to close the bracket.
				if c < p {
					dx += tol / 4
				} else {
					dx -= tol / 4
				}
			case !(math.Abs(dx) <= step/2):
				// Out of reach, stalling (also on a CDF flat to the last
				// ulp, where the nudge above did not close) or NaN.
				dx = 0.5*(lo+hi) - x
			}
			step = math.Abs(dx)
			x += dx
		}
		x = 0.5 * (lo + hi)
		if p >= pPrev {
			x = math.Max(x, xPrev)
		}
		xs[i], pPrev = x, p
	}
	return xs
}

// Interval returns P(a < X <= b) for the distribution d.
func Interval(d Dist, a, b float64) float64 {
	if b < a {
		return 0
	}
	p := d.CDF(b) - d.CDF(a)
	if p < 0 {
		return 0
	}
	return p
}

// CentralMoment integrates (x-mean)^k d.PDF(x) dx numerically over
// mean ± 12 standard deviations using composite Gauss-Legendre quadrature.
// It is used by distributions whose higher moments lack closed forms.
func CentralMoment(d Dist, k int) float64 {
	m, s := d.Mean(), Std(d)
	if s == 0 {
		return 0
	}
	lo, hi := m-12*s, m+12*s
	return integrate(func(x float64) float64 {
		return math.Pow(x-m, float64(k)) * d.PDF(x)
	}, lo, hi, 24)
}
