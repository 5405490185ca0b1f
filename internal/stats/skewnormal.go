package stats

import "math"

// MaxSNSkewness is the supremum of the absolute skewness attainable by a
// skew-normal distribution (≈ 0.99527 as α → ∞). Sample skewness is clamped
// just below it before the moments→parameters inversion.
const MaxSNSkewness = 0.995

// SkewNormal is Azzalini's skew-normal distribution SN(ξ, ω, α) with
// density (paper eq. 3)
//
//	f(x) = (2/ω) φ((x−ξ)/ω) Φ(α (x−ξ)/ω).
//
// α = 0 recovers N(ξ, ω²).
type SkewNormal struct {
	Xi    float64 // location ξ
	Omega float64 // scale ω > 0
	Alpha float64 // shape α
}

// delta returns δ = α/√(1+α²).
func (s SkewNormal) delta() float64 {
	return s.Alpha / math.Sqrt(1+s.Alpha*s.Alpha)
}

// PDF returns the skew-normal density at x.
func (s SkewNormal) PDF(x float64) float64 {
	if s.Omega <= 0 {
		return 0
	}
	z := (x - s.Xi) / s.Omega
	return 2 / s.Omega * StdNormPDF(z) * StdNormCDF(s.Alpha*z)
}

// CDF returns P(X <= x) = Φ(z) − 2·T(z, α).
func (s SkewNormal) CDF(x float64) float64 {
	if s.Omega <= 0 {
		if x < s.Xi {
			return 0
		}
		return 1
	}
	z := (x - s.Xi) / s.Omega
	// Clamp guards tiny quadrature noise at the tails.
	return clamp01(StdNormCDF(z) - 2*OwenT(z, s.Alpha))
}

// Mean returns ξ + ωδ√(2/π).
func (s SkewNormal) Mean() float64 {
	return s.Xi + s.Omega*s.delta()*sqrt2OverPi
}

// Variance returns ω²(1 − 2δ²/π).
func (s SkewNormal) Variance() float64 {
	d := s.delta()
	return s.Omega * s.Omega * (1 - 2*d*d/math.Pi)
}

// Skewness returns the third standardised moment γ₁.
func (s SkewNormal) Skewness() float64 {
	d := s.delta()
	num := (4 - math.Pi) / 2 * math.Pow(d*sqrt2OverPi, 3)
	den := math.Pow(1-2*d*d/math.Pi, 1.5)
	return num / den
}

// ExcessKurtosis returns γ₂ = E[(X−μ)⁴]/σ⁴ − 3.
func (s SkewNormal) ExcessKurtosis() float64 {
	d := s.delta()
	b := d * sqrt2OverPi
	num := 2 * (math.Pi - 3) * b * b * b * b
	den := math.Pow(1-2*d*d/math.Pi, 2)
	return num / den
}

// Moments returns the (mean, std-dev, skewness) vector θ of eq. (2).
func (s SkewNormal) Moments() (mean, sd, skew float64) {
	return s.Mean(), math.Sqrt(s.Variance()), s.Skewness()
}

// Quantile inverts the CDF numerically.
func (s SkewNormal) Quantile(p float64) float64 { return Quantile(s, p) }

// Sample draws a variate using the representation
// Z = δ|U₀| + √(1−δ²)·U₁ with U₀, U₁ iid standard normal.
func (s SkewNormal) Sample(src Source) float64 {
	d := s.delta()
	u0 := math.Abs(src.NormFloat64())
	u1 := src.NormFloat64()
	return s.Xi + s.Omega*(d*u0+math.Sqrt(1-d*d)*u1)
}

// Cumulants returns the first three cumulants (κ₁, κ₂, κ₃). Cumulants of
// independent sums add, which makes this the natural SSTA representation.
func (s SkewNormal) Cumulants() (k1, k2, k3 float64) {
	m, sd, g := s.Moments()
	return m, sd * sd, g * sd * sd * sd
}

// SNFromMoments inverts the moments→parameters bijection g of eq. (2):
// given a target mean, standard deviation and skewness it returns the
// skew-normal whose first three moments match. Skewness outside the
// attainable range (|γ| < MaxSNSkewness) is clamped to the boundary.
func SNFromMoments(mean, sd, skew float64) SkewNormal {
	if sd <= 0 {
		return SkewNormal{Xi: mean, Omega: 0, Alpha: 0}
	}
	g := skew
	if g > MaxSNSkewness {
		g = MaxSNSkewness
	}
	if g < -MaxSNSkewness {
		g = -MaxSNSkewness
	}
	ag := math.Abs(g)
	var delta float64
	if ag > 0 {
		g23 := math.Pow(ag, 2.0/3.0)
		c := math.Pow((4-math.Pi)/2, 2.0/3.0)
		delta = math.Sqrt(math.Pi / 2 * g23 / (g23 + c))
		// Numerical safety: |δ| must stay < 1.
		if delta > 0.999999 {
			delta = 0.999999
		}
		if g < 0 {
			delta = -delta
		}
	}
	omega := sd / math.Sqrt(1-2*delta*delta/math.Pi)
	xi := mean - omega*delta*sqrt2OverPi
	var alpha float64
	if math.Abs(delta) < 1 {
		alpha = delta / math.Sqrt(1-delta*delta)
	} else if delta > 0 {
		alpha = math.Inf(1)
	} else {
		alpha = math.Inf(-1)
	}
	return SkewNormal{Xi: xi, Omega: omega, Alpha: alpha}
}

// SNFromCumulants builds the SN matching the first three cumulants.
func SNFromCumulants(k1, k2, k3 float64) SkewNormal {
	if k2 <= 0 {
		return SkewNormal{Xi: k1}
	}
	sd := math.Sqrt(k2)
	return SNFromMoments(k1, sd, k3/(sd*sd*sd))
}
