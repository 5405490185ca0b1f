package stats

import (
	"math"
	"sort"
)

// Goodness-of-fit machinery: the regularised incomplete gamma function
// (hence the chi-square CDF) and two GOF tests used to score fitted
// timing models beyond the paper's three metrics — a binned chi-square
// test and the Kolmogorov–Smirnov p-value approximation.

// RegIncGammaP computes the regularised lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) via the standard series (x < a+1) or continued
// fraction (x ≥ a+1) — Numerical-Recipes-style, accurate to ~1e-12.
func RegIncGammaP(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a,x) = 1 − P(a,x) by continued fraction (Lentz).
func gammaCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareCDF is P(X ≤ x) for a chi-square distribution with k degrees
// of freedom.
func ChiSquareCDF(x float64, k int) float64 {
	if x <= 0 || k <= 0 {
		return 0
	}
	return RegIncGammaP(float64(k)/2, x/2)
}

// GOFResult is the outcome of a goodness-of-fit test.
type GOFResult struct {
	Statistic float64
	DoF       int
	PValue    float64
}

// ChiSquareGOF bins the samples into nbins equiprobable bins under the
// model (so expected counts are equal) and computes Pearson's chi-square
// statistic. dofPenalty is the number of parameters estimated from the
// data (subtracted from the degrees of freedom along with 1).
func ChiSquareGOF(model Dist, xs []float64, nbins, dofPenalty int) GOFResult {
	n := len(xs)
	if nbins < 2 || n < 5*nbins {
		return GOFResult{PValue: math.NaN()}
	}
	// Equiprobable bin edges from model quantiles.
	edges := make([]float64, nbins-1)
	for i := range edges {
		edges[i] = float64(i+1) / float64(nbins)
	}
	edges = Quantiles(model, edges)
	counts := make([]int, nbins)
	for _, x := range xs {
		i := sort.SearchFloat64s(edges, x)
		counts[i]++
	}
	expected := float64(n) / float64(nbins)
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	dof := nbins - 1 - dofPenalty
	if dof < 1 {
		dof = 1
	}
	return GOFResult{
		Statistic: chi2,
		DoF:       dof,
		PValue:    1 - ChiSquareCDF(chi2, dof),
	}
}

// KSPValue approximates the Kolmogorov–Smirnov p-value for a distance d
// on n samples via the asymptotic Kolmogorov distribution
// Q(λ) = 2 Σ (−1)^{j−1} e^{−2 j² λ²} with the small-sample correction
// λ = (√n + 0.12 + 0.11/√n)·d.
func KSPValue(d float64, n int) float64 {
	if n <= 0 || d <= 0 {
		return 1
	}
	sn := math.Sqrt(float64(n))
	lambda := (sn + 0.12 + 0.11/sn) * d
	var p float64
	if lambda < 1.18 {
		// Small-λ theta-function form: the alternating series converges
		// hopelessly slowly here. CDF(λ) = (√(2π)/λ) Σ e^{−(2j−1)²π²/(8λ²)}.
		var cdf float64
		for j := 1; j <= 20; j++ {
			e := float64(2*j-1) * math.Pi / lambda
			cdf += math.Exp(-e * e / 8)
		}
		cdf *= math.Sqrt(2*math.Pi) / lambda
		p = 1 - cdf
	} else {
		var sum float64
		sign := 1.0
		for j := 1; j <= 100; j++ {
			term := math.Exp(-2 * float64(j*j) * lambda * lambda)
			sum += sign * term
			if term < 1e-12 {
				break
			}
			sign = -sign
		}
		p = 2 * sum
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
