package stats

import (
	"fmt"
	"math"
	"testing"
)

// bisectQuantile is the oracle for Quantiles: plain bisection on d.CDF
// from a mean ± 8σ bracket widened by 8σ steps, stopped once the bracket
// is narrower than 1e-13·(1+|lo|).
func bisectQuantile(d Dist, p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return math.NaN()
	}
	m, s := d.Mean(), Std(d)
	if s <= 0 || math.IsNaN(s) {
		return m
	}
	lo, hi := m-8*s, m+8*s
	for i := 0; d.CDF(lo) > p && i < 64; i++ {
		lo -= 8 * s
	}
	for i := 0; d.CDF(hi) < p && i < 64; i++ {
		hi += 8 * s
	}
	for i := 0; i < 200 && hi-lo > 1e-13*(1+math.Abs(lo)); i++ {
		mid := 0.5 * (lo + hi)
		if d.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// countingDist counts CDF evaluations of the wrapped distribution.
type countingDist struct {
	Dist
	cdfs *int
}

func (c countingDist) CDF(x float64) float64 {
	*c.cdfs++
	return c.Dist.CDF(x)
}

// lvf2Mixtures are two-component skew-normal mixtures shaped like LVF²
// timing models: a minor slow or fast mode, overlapping or separated.
func lvf2Mixtures() []Mixture {
	specs := []struct{ w, m1, s1, g1, m2, s2, g2 float64 }{
		{0.7, 0.100, 0.005, 0.4, 0.112, 0.006, 0.8},
		{0.9, 0.050, 0.002, -0.2, 0.070, 0.004, 0.9},
		{0.5, 0.200, 0.010, 0.0, 0.205, 0.015, -0.6},
		{0.2, 1.000, 0.050, 0.99, 1.400, 0.020, -0.99},
	}
	var ms []Mixture
	for _, c := range specs {
		m, err := NewMixture([]float64{c.w, 1 - c.w}, []Dist{
			SNFromMoments(c.m1, c.s1, c.g1), SNFromMoments(c.m2, c.s2, c.g2),
		})
		if err != nil {
			panic(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// quantileCases are the batch shapes (with a non-unit location and scale)
// and the LVF²-like mixtures.
func quantileCases() map[string]Dist {
	cases := map[string]Dist{}
	for _, a := range batchAlphas() {
		cases[fmt.Sprintf("SN(α=%v)", a)] = SkewNormal{Xi: 0.1, Omega: 0.01, Alpha: a}
	}
	for i, m := range lvf2Mixtures() {
		cases[fmt.Sprintf("mixture%d", i)] = m
	}
	return cases
}

// midpointGrid is the refit sampler's probability grid (i+½)/n.
func midpointGrid(n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = (float64(i) + 0.5) / float64(n)
	}
	return ps
}

// quantileAgrees reports whether x inverts d.CDF at p as well as the
// bisection answer want: within 2e-13·(1+|x|) of it, or — where the CDF
// moves by less than its own absolute rounding (~2 ulp of 1) across that
// tolerance, as in the light tail of a strongly skewed shape, so the
// computed CDF is flat or non-monotone there and cannot rank the two —
// with |F(x) − p| within that rounding.
func quantileAgrees(d Dist, p, x, want float64) bool {
	const cdfNoise = 2.3e-16
	tol := 2e-13 * (1 + math.Abs(want))
	if math.Abs(x-want) <= tol {
		return true
	}
	return d.PDF(want)*tol < cdfNoise && math.Abs(d.CDF(x)-p) <= cdfNoise
}

// TestQuantilesMatchBisection checks the swept Newton inversion against
// bisection, the tails and the degenerate inputs included, and that its
// outputs never decrease along ascending probabilities.
func TestQuantilesMatchBisection(t *testing.T) {
	ps := append([]float64{math.NaN(), 1e-12, 1e-9, 1e-6}, midpointGrid(512)...)
	ps = append(ps, 1-1e-6, 1-1e-9, 1-1e-12, 0, 1)
	for name, d := range quantileCases() {
		got := Quantiles(d, ps)
		prev := math.Inf(-1)
		for i, p := range ps {
			want := bisectQuantile(d, p)
			if math.IsNaN(want) {
				if !math.IsNaN(got[i]) {
					t.Fatalf("%s: Quantiles(p=%v) = %v, want NaN", name, p, got[i])
				}
				continue
			}
			if !quantileAgrees(d, p, got[i], want) {
				t.Fatalf("%s: Quantiles(p=%v) = %v, bisection %v", name, p, got[i], want)
			}
			if got[i] < prev {
				t.Fatalf("%s: Quantiles decreased at p=%v: %v < %v", name, p, got[i], prev)
			}
			prev = got[i]
			if q := Quantile(d, p); !quantileAgrees(d, p, q, want) {
				t.Fatalf("%s: Quantile(p=%v) = %v, bisection %v", name, p, q, want)
			}
		}
	}
	// No spread: every valid probability maps to the mean.
	got := Quantiles(SkewNormal{Xi: 2, Omega: 0, Alpha: 1}, []float64{math.NaN(), 0.1, 0.9})
	if !math.IsNaN(got[0]) || got[1] != 2 || got[2] != 2 {
		t.Fatalf("σ = 0: Quantiles = %v, want [NaN 2 2]", got)
	}
	if got := Quantiles(twoSN(), nil); len(got) != 0 {
		t.Fatalf("empty ps: %v", got)
	}
}

// TestQuantilesUnsortedMatchesSorted checks that an out-of-order
// probability restarts the search instead of reusing the previous root.
func TestQuantilesUnsortedMatchesSorted(t *testing.T) {
	d := twoSN()
	ps := []float64{0.9, 0.1, 0.5, 0.3, 0.99}
	got := Quantiles(d, ps)
	for i, p := range ps {
		if want := bisectQuantile(d, p); !quantileAgrees(d, p, got[i], want) {
			t.Fatalf("p=%v: %v, bisection %v", p, got[i], want)
		}
	}
}

// TestQuantilesEvaluationBudget pins the cost of the refit sampler's
// 2048-point midpoint grid: at most 8 CDF evaluations per quantile
// (bisection needs about 43).
func TestQuantilesEvaluationBudget(t *testing.T) {
	ps := midpointGrid(2048)
	for name, d := range quantileCases() {
		var n int
		Quantiles(countingDist{d, &n}, ps)
		if per := float64(n) / float64(len(ps)); per > 8 {
			t.Errorf("%s: %.2f CDF evaluations per quantile, budget 8", name, per)
		} else {
			t.Logf("%s: %.2f CDF evaluations per quantile", name, per)
		}
	}
}
