package stats

import "math"

// Batch evaluation APIs. The fitting and binning hot loops evaluate the
// same distribution at thousands of points; the scalar PDF/CDF entry
// points redo per-distribution setup (1/ω) for every sample and cost an
// interface dispatch per call when reached through Dist. The batch forms
// hoist that setup out of the inner loop and devirtualise the per-point
// calls.

// BatchCDF is implemented by distributions that can evaluate their CDF
// over a batch of points more cheaply than repeated scalar calls. dst is
// reused when it has sufficient capacity; the (possibly reallocated)
// slice is returned.
type BatchCDF interface {
	CDFs(dst, xs []float64) []float64
}

// ensureLen returns dst resized to n, reallocating only when needed.
func ensureLen(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// PDFs evaluates the skew-normal density at every xs[i] into dst.
func (s SkewNormal) PDFs(dst, xs []float64) []float64 {
	dst = ensureLen(dst, len(xs))
	if s.Omega <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	invOmega := 1 / s.Omega
	scale := 2 * invOmega
	alpha := s.Alpha
	for i, x := range xs {
		z := (x - s.Xi) * invOmega
		dst[i] = scale * StdNormPDF(z) * StdNormCDF(alpha*z)
	}
	return dst
}

// LogPDFs evaluates the skew-normal log-density at every xs[i] into dst,
// with Φ(αz) floored at 1e-300 (matching the fitters' likelihood floor)
// so the result is finite deep in the rejected tail.
func (s SkewNormal) LogPDFs(dst, xs []float64) []float64 {
	dst = ensureLen(dst, len(xs))
	if s.Omega <= 0 {
		for i := range dst {
			dst[i] = math.Inf(-1)
		}
		return dst
	}
	invOmega := 1 / s.Omega
	logNorm := math.Log(2 * invOmega * invSqrt2Pi)
	alpha := s.Alpha
	for i, x := range xs {
		z := (x - s.Xi) * invOmega
		phi := StdNormCDF(alpha * z)
		if phi < 1e-300 {
			phi = 1e-300
		}
		dst[i] = logNorm - 0.5*z*z + math.Log(phi)
	}
	return dst
}

// CDFs evaluates the skew-normal CDF at every xs[i] into dst.
func (s SkewNormal) CDFs(dst, xs []float64) []float64 {
	dst = ensureLen(dst, len(xs))
	if s.Omega <= 0 {
		for i, x := range xs {
			if x < s.Xi {
				dst[i] = 0
			} else {
				dst[i] = 1
			}
		}
		return dst
	}
	invOmega := 1 / s.Omega
	for i, x := range xs {
		z := (x - s.Xi) * invOmega
		dst[i] = clamp01(StdNormCDF(z) - 2*OwenT(z, s.Alpha))
	}
	return dst
}

func clamp01(c float64) float64 {
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// CDFs evaluates the Gaussian CDF at every xs[i] into dst.
func (n Normal) CDFs(dst, xs []float64) []float64 {
	dst = ensureLen(dst, len(xs))
	if n.Sigma <= 0 {
		for i, x := range xs {
			if x < n.Mu {
				dst[i] = 0
			} else {
				dst[i] = 1
			}
		}
		return dst
	}
	invSigma := 1 / n.Sigma
	for i, x := range xs {
		dst[i] = StdNormCDF((x - n.Mu) * invSigma)
	}
	return dst
}

// CDFs evaluates the mixture CDF at every xs[i] into dst, using the
// components' batch forms when available (one interface dispatch per
// component per batch instead of one per point).
func (m Mixture) CDFs(dst, xs []float64) []float64 {
	dst = ensureLen(dst, len(xs))
	for i := range dst {
		dst[i] = 0
	}
	var tmp []float64
	for ci, w := range m.Weights {
		if bc, ok := m.Components[ci].(BatchCDF); ok {
			tmp = bc.CDFs(tmp, xs)
			for j, c := range tmp {
				dst[j] += w * c
			}
			continue
		}
		comp := m.Components[ci]
		for j, x := range xs {
			dst[j] += w * comp.CDF(x)
		}
	}
	return dst
}
