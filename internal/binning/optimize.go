package binning

import (
	"math"

	"lvf2/internal/opt"
	"lvf2/internal/stats"
)

// Bin-boundary optimisation: the paper motivates accurate statistical
// timing with "an early indicator for pricing strategy development" (§1).
// Given a delay distribution and a price per bin, the expected revenue
// per chip depends on where the bin boundaries sit; this module finds the
// revenue-maximising boundaries, which is exactly the pricing-strategy
// decision the introduction describes.

// OptimizeBoundaries finds len(prices)-1 ascending boundaries maximising
// Σ P(binᵢ)·priceᵢ under the given delay distribution. The first and last
// prices usually price the faulty (too fast) and failing (too slow) bins
// at zero. Boundaries are seeded at the distribution's evenly spaced
// quantiles and refined with Nelder–Mead over an unconstrained
// reparameterisation (log-gaps), which keeps them sorted.
func OptimizeBoundaries(d stats.Dist, prices []float64) (Boundaries, float64) {
	k := len(prices) - 1
	if k < 1 {
		return nil, 0
	}
	// Seed: quantiles at i/(k+1), inverted in one sweep.
	seed := make([]float64, k)
	for i := range seed {
		seed[i] = float64(i+1) / float64(k+1)
	}
	seed = stats.Quantiles(d, seed) // ascending ps: non-decreasing
	scale := stats.Std(d)
	if scale <= 0 || math.IsNaN(seed[0]) {
		return seed, ExpectedRevenue(DistProbabilities(d, seed), prices)
	}

	// Reparameterise: x0 = first boundary, then log-gaps.
	x := make([]float64, k)
	x[0] = seed[0]
	for i := 1; i < k; i++ {
		gap := seed[i] - seed[i-1]
		if gap <= scale*1e-6 {
			gap = scale * 1e-6
		}
		x[i] = math.Log(gap)
	}
	decode := func(p []float64) Boundaries {
		b := make(Boundaries, k)
		b[0] = p[0]
		for i := 1; i < k; i++ {
			b[i] = b[i-1] + math.Exp(p[i])
		}
		return b
	}
	neg := func(p []float64) float64 {
		b := decode(p)
		return -ExpectedRevenue(DistProbabilities(d, b), prices)
	}
	best, negRev := opt.NelderMead(neg, x, opt.NelderMeadOptions{
		MaxIter: 300 * k,
		TolF:    1e-10,
		TolX:    1e-10,
	})
	b := decode(best)
	rev := -negRev
	// Keep the seed if optimisation somehow regressed.
	if seedRev := ExpectedRevenue(DistProbabilities(d, seed), prices); seedRev > rev {
		return seed, seedRev
	}
	return b, rev
}

// RevenueGain compares the revenue-optimal boundaries against a reference
// boundary set (e.g. the μ±kσ convention), returning optimal/reference.
func RevenueGain(d stats.Dist, prices []float64, reference Boundaries) float64 {
	_, optRev := OptimizeBoundaries(d, prices)
	refRev := ExpectedRevenue(DistProbabilities(d, reference), prices)
	if refRev <= 0 {
		return math.Inf(1)
	}
	return optRev / refRev
}
