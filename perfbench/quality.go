package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	"lvf2/internal/binning"
	"lvf2/internal/cells"
	"lvf2/internal/liberty"
	"lvf2/internal/stats"
)

// The verification set and its golden data are fixed: they do not depend
// on the workload seed, so cdf_rmse and binning_err are bit-identical
// across runs of the same code.
const (
	verifySeed    = 0x7e51f1ed
	verifyPoints  = 12
	goldenSeed    = 0x601de7 // the fixture and libgen builds use seed 1
	goldenSamples = 20000
	// cdfPoints matches binning.Evaluate's CDF RMSE resolution.
	cdfPoints = 2000
)

// verifyPoint is one on-grid point of the fixture with its held-out
// Monte-Carlo golden sample.
type verifyPoint struct {
	arc      fixtureArc
	row, col int // index into the fixture table's axes
	golden   *stats.Empirical
	xs       []float64 // CDF evaluation points, ascending: order statistics and bin boundaries
}

// verificationSet picks verifyPoints on-grid points (one table after
// another, seeded grid positions) and characterises each with a golden
// seed separate from the fixture's.
func verificationSet(fx *fixture) ([]verifyPoint, error) {
	rng := rand.New(rand.NewPCG(verifySeed, 0))
	grid := cells.DefaultGrid()
	pts := make([]verifyPoint, verifyPoints)
	for i := range pts {
		a := fx.arcs[i%len(fx.arcs)]
		p := verifyPoint{arc: a, row: rng.IntN(len(a.slews)), col: rng.IntN(len(a.loads))}
		arc, err := synthArc(a.cell, a.from)
		if err != nil {
			return nil, err
		}
		si := slices.Index(grid.Slews, a.slews[p.row])
		li := slices.Index(grid.Loads, a.loads[p.col])
		if si < 0 || li < 0 {
			return nil, fmt.Errorf("fixture point %s/%s (%g, %g) is not on the characterisation grid", a.cell, a.from, a.slews[p.row], a.loads[p.col])
		}
		cfg := cells.CharConfig{Samples: goldenSamples, Seed: goldenSeed,
			Skip: func(_ cells.Arc, s, l int) bool { return s != si || l != li }}
		kind := cells.Delay
		if strings.Contains(a.base, "transition") {
			kind = cells.Transition
		}
		for _, d := range cells.CharacterizeArc(cfg, arc) {
			if d.Kind == kind {
				p.golden = stats.NewEmpirical(d.Samples)
			}
		}
		if p.golden == nil {
			return nil, fmt.Errorf("no golden %v sample for %s/%s", kind, a.cell, a.from)
		}
		p.xs = append(p.orderStats(), p.bounds()...)
		slices.Sort(p.xs)
		p.xs = slices.Compact(p.xs)
		pts[i] = p
	}
	return pts, nil
}

// key is the served lvf2 model at the point.
func (p verifyPoint) key() arcKey {
	a := p.arc
	return arcKey{a.cell, a.out, a.from, a.base, a.slews[p.row], a.loads[p.col], "lvf2"}
}

// orderStats are the golden sample's order statistics at a stride that
// leaves cdfPoints of them, as binning.CDFRMSE evaluates.
func (p verifyPoint) orderStats() []float64 {
	sorted := p.golden.Sorted()
	step := max(1, len(sorted)/cdfPoints)
	var out []float64
	for j := 0; j < len(sorted); j += step {
		out = append(out, sorted[j])
	}
	return out
}

// bounds are the paper's σ bin boundaries at the golden moments.
func (p verifyPoint) bounds() binning.Boundaries {
	m := p.golden.Moments()
	return binning.SigmaBoundaries(m.Mean, m.Std())
}

// scores returns the CDF RMSE (mid-rank empirical CDF at strided order
// statistics, as binning.CDFRMSE) and the binning error (mean absolute
// bin-probability difference over golden-moment σ bins, as
// binning.Evaluate) of a model given its CDF at p.xs.
func (p verifyPoint) scores(cdf []float64) (rmse, binErr float64) {
	at := func(x float64) float64 {
		i, _ := slices.BinarySearch(p.xs, x)
		return cdf[i]
	}
	n := p.golden.Len()
	step := max(1, n/cdfPoints)
	ord := p.orderStats()
	var s float64
	for j, x := range ord {
		d := at(x) - (float64(j*step)+0.5)/float64(n)
		s += d * d
	}
	rmse = math.Sqrt(s / float64(len(ord)))
	b := p.bounds()
	return rmse, binning.BinningError(binning.Probabilities(at, b), binning.EmpiricalProbabilities(p.golden, b))
}

// aggregate averages the per-point scores in verification-set order.
func aggregate(rep *report, pts []verifyPoint, cdfs [][]float64) {
	var rmse, berr float64
	for i, p := range pts {
		r, b := p.scores(cdfs[i])
		rmse += r
		berr += b
	}
	n := float64(len(pts))
	rep.add("cdf_rmse", rmse/n, "frac", len(pts))
	rep.add("binning_err", berr/n, "frac", len(pts))
}

// verifyServed queries the verification set through every replica after
// the timed phase. Each answer passes the response checks, every replica
// returns byte-identical bodies, and the first replica's answers are
// scored against the golden samples.
func verifyServed(rep *report, fx *fixture, live []*daemon) error {
	pts, err := verificationSet(fx)
	if err != nil {
		return err
	}
	reqs := make([]request, len(pts))
	for i, p := range pts {
		xs := make([]string, len(p.xs))
		for j, x := range p.xs {
			xs[j] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		k := p.key()
		reqs[i] = request{method: "GET", shape: "cdf", key: k,
			path: "/v1/arc/cdf?" + k.query() + "&points=" + strings.Join(xs, ",")}
	}
	var first []sample
	for _, u := range urls(live) {
		// One connection runs the list in order.
		samples, _ := runLoad(loadSpec{targets: []string{u}, reqs: reqs, conns: 1, keepBodies: true})
		tally(rep, samples)
		if first == nil {
			first = samples
			continue
		}
		for i, s := range samples {
			if s.err == nil && first[i].err == nil && string(s.body) != string(first[i].body) {
				rep.fail("verification answer %d differs between %s and %s", i, live[0].url, u)
			}
		}
	}
	cdfs := make([][]float64, len(pts))
	for i, s := range first {
		if s.err != nil {
			return fmt.Errorf("verification query failed: %w", s.err)
		}
		var body struct {
			Points []struct {
				X   float64 `json:"x"`
				CDF float64 `json:"cdf"`
			} `json:"points"`
		}
		if err := json.Unmarshal(s.body, &body); err != nil {
			return err
		}
		if len(body.Points) != len(pts[i].xs) {
			return fmt.Errorf("verification query %d: %d points back for %d asked", i, len(body.Points), len(pts[i].xs))
		}
		for j, pt := range body.Points {
			cdfs[i] = append(cdfs[i], pt.CDF)
			if pt.X != pts[i].xs[j] {
				return fmt.Errorf("verification query %d: point %d came back as %g, asked %g", i, j, pt.X, pts[i].xs[j])
			}
		}
	}
	aggregate(rep, pts, cdfs)
	return nil
}

// verifyEmitted scores the LVF² models of an emitted library at the
// verification set, evaluated in process.
func verifyEmitted(rep *report, fx *fixture, libText string) error {
	pts, err := verificationSet(fx)
	if err != nil {
		return err
	}
	g, err := liberty.Parse(libText)
	if err != nil {
		return err
	}
	lib, err := liberty.LoadLibrary(g)
	if err != nil {
		return err
	}
	cdfs := make([][]float64, len(pts))
	for i, p := range pts {
		a := p.arc
		cell, ok := lib.Cells[a.cell]
		if !ok || cell.Pins[a.out] == nil {
			return fmt.Errorf("emitted library has no %s/%s", a.cell, a.out)
		}
		arc, ok := cell.Pins[a.out].ArcTo(a.from)
		if !ok || arc.Tables[a.base] == nil {
			return fmt.Errorf("emitted library has no %s arc %s->%s", a.base, a.from, a.out)
		}
		m, err := arc.Tables[a.base].ModelAt(p.row, p.col)
		if err != nil {
			return err
		}
		d := m.Dist()
		for _, x := range p.xs {
			cdfs[i] = append(cdfs[i], d.CDF(x))
		}
	}
	aggregate(rep, pts, cdfs)
	return nil
}
