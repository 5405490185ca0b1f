package ssta

import (
	"math"

	"lvf2/internal/stats"
)

// MaxMoments computes the first four moments of max(A, B) for independent
// A, B by numeric quadrature of the max density
//
//	f_max(x) = f_A(x)·F_B(x) + F_A(x)·f_B(x)
//
// over the union of both supports (each truncated at ±10σ). The density
// is tabulated once at the Simpson nodes and every moment is formed from
// that table.
func MaxMoments(a, b stats.Dist) stats.SampleMoments {
	sa, sb := stats.Std(a), stats.Std(b)
	lo := math.Min(a.Mean()-10*sa, b.Mean()-10*sb)
	hi := math.Max(a.Mean()+10*sa, b.Mean()+10*sb)
	var xs, pdf, ys [simpsonN + 1]float64
	h := (hi - lo) / simpsonN
	for i := range xs {
		x := lo + float64(i)*h
		if i == simpsonN {
			x = hi // exactly, not lo + n·h
		}
		xs[i] = x
		pdf[i] = a.PDF(x)*b.CDF(x) + a.CDF(x)*b.PDF(x)
	}
	// moment integrates g(x)·f_max(x).
	moment := func(g func(float64) float64) float64 {
		for i, x := range xs {
			ys[i] = g(x) * pdf[i]
		}
		return simpson(&ys, h)
	}
	m1 := moment(func(x float64) float64 { return x })
	m2 := moment(func(x float64) float64 { d := x - m1; return d * d })
	m3 := moment(func(x float64) float64 { d := x - m1; return d * d * d })
	m4 := moment(func(x float64) float64 { d := x - m1; return d * d * d * d })
	sm := stats.SampleMoments{Mean: m1, Variance: m2}
	if m2 > 0 {
		sm.Skewness = m3 / math.Pow(m2, 1.5)
		sm.Kurtosis = m4 / (m2 * m2)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// simpsonN is the node-interval count of the max-density quadrature: 96
// composite Simpson panels, sufficient for the smooth max densities
// handled here. It must be even.
const simpsonN = 192

// simpson applies the composite Simpson rule to samples ys taken h apart.
func simpson(ys *[simpsonN + 1]float64, h float64) float64 {
	sum := ys[0] + ys[simpsonN]
	for i := 1; i < simpsonN; i++ {
		if i%2 == 1 {
			sum += 4 * ys[i]
		} else {
			sum += 2 * ys[i]
		}
	}
	return sum * h / 3
}

// ClarkMax returns the Clark (1961) closed-form mean and variance of
// max(A, B) for jointly Gaussian A, B with correlation rho — the classical
// block-based SSTA max of Devgan & Kashyap. Provided for reference and as
// a fast path for Gaussian variables; the generic quadrature above handles
// the non-Gaussian families.
func ClarkMax(mu1, var1, mu2, var2, rho float64) (mean, variance float64) {
	a2 := var1 + var2 - 2*rho*math.Sqrt(var1*var2)
	if a2 <= 0 {
		// Perfectly correlated equal-variance inputs: max is the larger.
		if mu1 >= mu2 {
			return mu1, var1
		}
		return mu2, var2
	}
	a := math.Sqrt(a2)
	alpha := (mu1 - mu2) / a
	phi := stats.StdNormPDF(alpha)
	Phi := stats.StdNormCDF(alpha)
	mean = mu1*Phi + mu2*(1-Phi) + a*phi
	ex2 := (var1+mu1*mu1)*Phi + (var2+mu2*mu2)*(1-Phi) + (mu1+mu2)*a*phi
	variance = ex2 - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}
