package stats

import "math"

// owenTCut bounds the reduced integrand exp(−(ht)²/2): beyond t = owenTCut/h
// it is below 1e-17 of its peak, so the integral past that point is
// negligible at float64 precision.
const owenTCut = 9

// OwenT computes Owen's T function
//
//	T(h, a) = 1/(2π) ∫₀ᵃ exp(−h²(1+t²)/2)/(1+t²) dt,
//
// which appears in the skew-normal CDF: F_SN(z; α) = Φ(z) − 2·T(z, α).
//
// The range of integration is first cut at t = owenTCut/h, which for large
// h already brings it inside [0, 1]. What remains of |a| > 1 is reduced
// with the classical identity
//
//	T(h, a) = ½Φ(h)Q(ah) + ½Φ(ah)Q(h) − T(ah, 1/a)   (a > 0, Q = 1 − Φ),
//
// written with upper-tail Q so the sum does not cancel, and [0, a ≤ 1] is
// integrated with panelised Gauss-Legendre quadrature whose panel count
// grows with h·a. Accuracy is ≤ 2e-16 absolute and, where T > 1e-300,
// ≤ 1e-13 relative.
func OwenT(h, a float64) float64 {
	if a == 0 || math.IsNaN(h) || math.IsNaN(a) {
		return 0
	}
	// Symmetries: T(h,a) is even in h and odd in a.
	h = math.Abs(h) // also maps −0 to +0, so owenTCut/h is +∞ at h = 0
	if a < 0 {
		return -OwenT(h, -a)
	}
	if a = math.Min(a, owenTCut/h); a <= 1 {
		return owenTCore(h, a)
	}
	if math.IsInf(a, 1) { // h = 0: atan(∞)/(2π)
		return 0.25
	}
	ah := a * h
	return 0.5*(StdNormCDF(h)*StdNormCDF(-ah)+StdNormCDF(ah)*StdNormCDF(-h)) -
		owenTCore(ah, 1/a)
}

// owenTCore integrates the Owen integrand for 0 <= a <= 1, h >= 0 in the
// form
//
//	exp(−h²/2)/(2π) ∫₀ᵇ exp(−(ht)²/2)/(1+t²) dt,   b = min(a, owenTCut/h).
//
// The remaining integrand varies on the scale t ~ 1/h, so the rule uses
// one 16-point panel per 3 units of h·b, where a Gaussian is resolved to
// below float64 rounding; h·b ≤ owenTCut bounds that at 4 panels (64 exp
// calls), |h| < 3 needs one and |h| < 6 two. h is finite once exp(−h²/2)
// is non-zero, so the float panel count is finite and bounded before it
// is converted to int.
func owenTCore(h, a float64) float64 {
	hh := h * h
	e := -0.5 * hh
	env := math.Exp(e)
	if a == 0 || env == 0 {
		return 0
	}
	// Fold the rounding error of h² back into the envelope: at h > 30 it
	// alone costs up to ~6e-14 relative.
	env *= 1 - 0.5*math.FMA(h, h, -hh)
	b := math.Min(a, owenTCut/h)
	panels := int(1 + math.Floor(h*b/3))
	w := b / float64(panels)
	var sum float64
	for p := 0; p < panels; p++ {
		mid := (float64(p) + 0.5) * w
		for i, x := range glNodes16 {
			t := mid + 0.5*w*x
			sum += glWeights16[i] * math.Exp(e*t*t) / (1 + t*t)
		}
	}
	return env * 0.5 * w * sum / (2 * math.Pi)
}
