package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOwenTKnownIdentities(t *testing.T) {
	// T(0, a) = atan(a) / (2π).
	for _, a := range []float64{0.1, 0.5, 1, 2, 10} {
		want := math.Atan(a) / (2 * math.Pi)
		if got := OwenT(0, a); !almostEqual(got, want, 1e-12) {
			t.Errorf("OwenT(0,%v) = %v, want %v", a, got, want)
		}
	}
	// T(h, 1) = Φ(h)(1 − Φ(h)) / 2.
	for _, h := range []float64{0, 0.3, 1, 2.5, 4} {
		ph := StdNormCDF(h)
		want := 0.5 * ph * (1 - ph)
		if got := OwenT(h, 1); !almostEqual(got, want, 1e-12) {
			t.Errorf("OwenT(%v,1) = %v, want %v", h, got, want)
		}
	}
}

func TestOwenTSymmetries(t *testing.T) {
	for _, h := range []float64{0.2, 1.1, 3} {
		for _, a := range []float64{0.4, 1.7, 6} {
			if got, want := OwenT(-h, a), OwenT(h, a); !almostEqual(got, want, 1e-13) {
				t.Errorf("even in h: T(%v,%v)", -h, a)
			}
			if got, want := OwenT(h, -a), -OwenT(h, a); !almostEqual(got, want, 1e-13) {
				t.Errorf("odd in a: T(%v,%v)", h, -a)
			}
		}
	}
	if OwenT(1, 0) != 0 {
		t.Error("T(h,0) must be 0")
	}
}

func TestOwenTInfiniteA(t *testing.T) {
	for _, h := range []float64{0, 0.5, 2} {
		want := 0.5 * (1 - StdNormCDF(h))
		if got := OwenT(h, math.Inf(1)); !almostEqual(got, want, 1e-13) {
			t.Errorf("T(%v, inf) = %v want %v", h, got, want)
		}
	}
}

// Property: 0 <= T(h,a) <= 1/4 for a >= 0 (bounds from the definition).
func TestOwenTBoundsProperty(t *testing.T) {
	f := func(hr, ar float64) bool {
		h := math.Mod(math.Abs(hr), 8)
		a := math.Mod(math.Abs(ar), 50)
		v := OwenT(h, a)
		return v >= -1e-15 && v <= 0.25+1e-12
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// owenBrute is the cross-check oracle: the defining integral after the
// substitution t = sinh s,
//
//	T(h, a) = exp(−h²/2)/(2π) ∫₀^asinh|a| exp(−(h·sinh s)²/2)/cosh s ds,
//
// which has no argument reduction and resolves both the 1/(1+t²) scale
// and the Gaussian cut-off with 64 uniform Gauss-Legendre panels. It is
// truncated where |h|·t > 40 (the integrand is below the float64 range
// there) and summed with compensation, since plain summation of the
// ~1000 terms drifts by a few ulp, more than the bound under test.
func owenBrute(h, a float64) float64 {
	b := math.Abs(a)
	if h != 0 && 40/math.Abs(h) < b {
		b = 40 / math.Abs(h)
	}
	if math.IsInf(b, 1) { // h = 0, a = ±∞: atan(∞)/(2π)
		return math.Copysign(0.25, a)
	}
	w := math.Asinh(b) / 64
	var sum, comp float64
	for p := 0; p < 64; p++ {
		mid := (float64(p) + 0.5) * w
		for i, x := range glNodes16 {
			u := mid + 0.5*w*x
			hs := h * math.Sinh(u)
			v := 0.5 * w * glWeights16[i] * math.Exp(-0.5*hs*hs) / math.Cosh(u)
			s := sum + v
			if math.Abs(sum) >= math.Abs(v) {
				comp += (sum - s) + v
			} else {
				comp += (v - s) + sum
			}
			sum = s
		}
	}
	// exp(−h²/2) is factored out of the sum, with the rounding error of
	// h² folded back in, so its rounding is not shared by every node.
	hh := h * h
	env := math.Exp(-0.5*hh) * (1 - 0.5*math.FMA(h, h, -hh))
	return math.Copysign(env*(sum+comp)/(2*math.Pi), a)
}

// owenGridA covers a ∈ [0, 50] and +∞: dense on the reduced range (0, 1],
// where the adaptive panel count changes, and geometric beyond it. The
// cross-check mirrors it to negative a.
func owenGridA() []float64 {
	as := []float64{0}
	for k := 1; k <= 64; k++ {
		as = append(as, float64(k)/64)
	}
	for a := 1.0; a < 50; a *= 1.05 {
		as = append(as, a*1.0001)
	}
	return append(as, 50, math.Inf(1))
}

// TestOwenTQuadratureCrossCheck checks OwenT against the brute oracle on
// a dense h ∈ [0, 40] × a ∈ [−50, 50] grid plus the non-finite edges:
// absolute error ≤ 2e-16 everywhere and relative error ≤ 1e-13 wherever
// T > 1e-300.
func TestOwenTQuadratureCrossCheck(t *testing.T) {
	const absTol, relTol = 2e-16, 1e-13
	var worstAbs, worstRel float64
	for hi := 0; hi <= 400; hi++ {
		h := float64(hi) * 0.1
		for _, a := range owenGridA() {
			want := owenBrute(h, a)
			// T is even in h and odd in a: one oracle value checks four calls.
			for _, c := range [][2]float64{{h, a}, {-h, a}, {h, -a}, {-h, -a}} {
				got := OwenT(c[0], c[1])
				if c[1] < 0 {
					got = -got
				}
				d := math.Abs(got - want)
				worstAbs = math.Max(worstAbs, d)
				if !(d <= absTol) {
					t.Fatalf("T(%v,%v) = %v, brute %v: abs err %.3g", c[0], c[1], got, want, d)
				}
				if want > 1e-300 {
					r := d / want
					worstRel = math.Max(worstRel, r)
					if r > relTol {
						t.Fatalf("T(%v,%v) = %v, brute %v: rel err %.3g", c[0], c[1], got, want, r)
					}
				}
			}
		}
	}
	t.Logf("worst abs err %.3g, worst rel err %.3g", worstAbs, worstRel)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ h, a, want float64 }{
		{inf, 0.5, 0}, {-inf, 3, 0}, {inf, inf, 0}, {inf, -inf, 0},
		{0, inf, 0.25}, {0, -inf, -0.25},
		{nan, 0.5, 0}, {1, nan, 0}, {nan, nan, 0},
	} {
		if got := OwenT(c.h, c.a); got != c.want {
			t.Errorf("T(%v,%v) = %v, want %v", c.h, c.a, got, c.want)
		}
	}
}
