package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"strings"

	"lvf2/internal/binning"
	"lvf2/internal/cells"
	"lvf2/internal/core"
	"lvf2/internal/fit"
	"lvf2/internal/libbuild"
	"lvf2/internal/liberty"
	"lvf2/internal/modelcache"
	"lvf2/internal/netlist"
	"lvf2/internal/ring"
	"lvf2/internal/server"
	"lvf2/internal/spice"
	"lvf2/internal/sta"
	"lvf2/internal/stats"
	"lvf2/internal/yield"
)

// replayLimit bounds how many requests of a hit-path list the traced
// run replays in process; refit, SSTA and yield requests are replayed
// once per label, since each costs as much as a real request.
const replayLimit = 512

// fitKinds maps the query spellings lvf2d accepts to model kinds.
var fitKinds = map[string]fit.Model{
	"lvf": fit.ModelLVF, "lvf2": fit.ModelLVF2, "norm2": fit.ModelNorm2,
	"lesn": fit.ModelLESN, "ln": fit.ModelLN, "lsn": fit.ModelLSN,
	"gaussian": fit.ModelGaussian,
}

// replaySet picks the requests a traced run replays in process.
func replaySet(reqs []request) []int {
	var idx []int
	seen := map[string]bool{}
	for i, r := range reqs {
		if r.label == "" && len(idx) < replayLimit {
			idx = append(idx, i)
		} else if r.label != "" && !seen[r.label] {
			seen[r.label] = true
			idx = append(idx, i)
		}
	}
	return idx
}

// replayServing replays requests in process, in handler order. Each
// request gets a root span with two children: server.handler, the whole
// in-process Handler().ServeHTTP of the request, and replay.calls, whose
// children are timed calls into the public functions the handler runs
// (model-cache lookup, ring owner, binning and stats evaluation, the
// refit, SSTA and yield estimators). server.self_ms is the handler time
// minus those calls: routing, query parsing, arc resolution, middleware
// and JSON encoding.
func replayServing(rep *report, tr *tracer, fx *fixture, plan servingPlan, reqs []request) error {
	parseLibrary(rep, tr, fx)

	srv := server.New(server.Config{})
	if _, err := srv.AddLibrary("fx", []byte(fx.text)); err != nil {
		return err
	}
	srv.Bootstrap()
	h := srv.Handler()
	serve := func(r *request) (int, []byte) {
		var body io.Reader
		if r.body != nil {
			body = bytes.NewReader(r.body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, body))
		return rec.Code, rec.Body.Bytes()
	}
	cache := modelcache.New(modelcache.Options{})
	if plan.warm {
		for _, r := range warmupList(fx) {
			if code, body := serve(&r); code != 200 {
				return fmt.Errorf("in-process warm-up: status %d: %.200s", code, body)
			}
			m, err := tableModel(fx, r.key)
			if err != nil {
				return err
			}
			if _, err := cache.Model(modelKey(r.key), func() (core.Model, error) { return m, nil }); err != nil {
				return err
			}
		}
	}
	var rg *ring.Ring
	if plan.replicas > 1 {
		ids := make([]string, plan.replicas)
		for i := range ids {
			ids[i] = string(rune('a' + i))
		}
		var err error
		if rg, err = ring.New(ids, ring.Options{}); err != nil {
			return err
		}
	}

	var selfs []float64
	for _, i := range replaySet(reqs) {
		r := &reqs[i]
		root := tr.begin("replay.request", 0, i)
		var code int
		var body []byte
		handler := tr.timed("server.handler", root, i, func() { code, body = serve(r) })
		if err := check(r, code, "", body); err != nil {
			return fmt.Errorf("in-process replay: %w", err)
		}
		calls := tr.begin("replay.calls", root, i)
		if err := replayCalls(tr, calls, i, r, fx, cache, rg); err != nil {
			return err
		}
		tr.end(calls)
		tr.end(root)
		callsSpan := tr.spans[calls-1]
		selfs = append(selfs, ms(handler-(callsSpan.dur()-tr.selfTime(calls))))
	}

	d := tr.byName()
	med := func(name string) float64 {
		if xs := d[name]; len(xs) > 0 {
			return median(xs)
		}
		return 0
	}
	add := func(metric, spanName string, scale float64, unit string) {
		if n := len(d[spanName]); n > 0 {
			rep.add(metric, med(spanName)*scale, unit, n)
		}
	}
	add("server.handler_ms", "server.handler", 1, "ms")
	rep.add("server.self_ms", median(selfs), "ms", len(selfs))
	add("modelcache.lookup_us", "modelcache.lookup", 1000, "us")
	add("binning.eval_us", "binning.eval", 1000, "us")
	add("binning.cdf_grid_us", "binning.cdf_grid", 1000, "us")
	add("ring.owner_us", "ring.owner", 1000, "us")
	add("stats.quantile_ms", "stats.quantile", 1, "ms")
	for _, k := range refitKinds {
		add("fit.refit_ms."+k, "fit.refit."+k, 1, "ms")
	}
	add("sta.run_ms.rca16", "sta.run.rca16", 1, "ms")
	add("sta.run_ms.chain", "sta.run.chain", 1, "ms")
	add("yield.estimate_ms.mnis", "yield.estimate.mnis", 1, "ms")
	add("yield.estimate_ms.ais", "yield.estimate.ais", 1, "ms")
	return nil
}

// replayCalls times, as children of parent, the public module calls the
// handler makes for r.
func replayCalls(tr *tracer, parent, id int, r *request, fx *fixture, cache *modelcache.Cache, rg *ring.Ring) error {
	if r.shape == "ssta" {
		return replaySSTA(tr, parent, id, r, fx)
	}
	if rg != nil {
		tr.timed("ring.owner", parent, id, func() { _ = rg.Owner(modelKey(r.key).RingKey()) })
	}
	m, err := tableModel(fx, r.key)
	if r.refit {
		// The refit path: lvf2d's deterministic midpoint quantile grid of
		// the arc's LVF² distribution, then the robust fit of the kind.
		var base core.Model
		if base, err = tableModel(fx, arcKey{r.key.cell, r.key.out, r.key.from, r.key.base, r.key.slew, r.key.load, "lvf2"}); err != nil {
			return err
		}
		xs := make([]float64, 2048) // lvf2d's default -fit-samples
		tr.timed("stats.quantile", parent, id, func() {
			d := base.Dist()
			for j := range xs {
				xs[j] = stats.Quantile(d, (float64(j)+0.5)/float64(len(xs)))
			}
		})
		tr.timed("fit.refit."+r.key.kind, parent, id, func() {
			m, _, err = core.FitKindRobust(fitKinds[r.key.kind], xs, fit.RobustOptions{})
		})
	}
	if err != nil {
		return err
	}
	tr.timed("modelcache.lookup", parent, id, func() {
		_, err = cache.Model(modelKey(r.key), func() (core.Model, error) { return m, nil })
	})
	if err != nil {
		return err
	}
	d := m.Dist()
	switch {
	case r.shape == "binning":
		tr.timed("binning.eval", parent, id, func() {
			mean, std := d.Mean(), stats.Std(d)
			_ = binning.DistProbabilities(d, binning.SigmaBoundaries(mean, std))
			_ = binning.Yield3Sigma(d.CDF, mean, std)
		})
	case r.shape == "cdf":
		tr.timed("binning.cdf_grid", parent, id, func() {
			mean, std := d.Mean(), stats.Std(d)
			for j := 0; j < 21; j++ {
				x := mean - 4*std + 8*std*float64(j)/20
				_, _ = d.CDF(x), d.PDF(x)
			}
		})
	case r.label != "": // GET /v1/yield with an estimator
		return replayYield(tr, parent, id, r, d)
	default: // analytic GET /v1/yield
		tr.timed("stats.yield_cdf", parent, id, func() { _ = d.CDF(d.Mean() + 3*stats.Std(d)) })
	}
	return nil
}

func replayYield(tr *tracer, parent, id int, r *request, d stats.Dist) error {
	arc, err := synthArc(r.key.cell, r.key.from)
	if err != nil {
		return err
	}
	metric := yield.MetricDelay
	if strings.Contains(r.key.base, "transition") {
		metric = yield.MetricTransition
	}
	spec := yield.FromArc(arc.Elec, spice.TTCorner(), metric, r.key.slew, r.key.load, d.Mean()+4*stats.Std(d))
	est, err := yield.New(r.label)
	if err != nil {
		return err
	}
	// lvf2d's default -yield-max-samples and -yield-batch.
	contract := yield.Contract{MaxSamples: 1 << 22, Batch: 4096}
	tr.timed("yield.estimate."+r.label, parent, id, func() {
		_, err = est.Estimate(context.Background(), spec, contract)
	})
	return err
}

func replaySSTA(tr *tracer, parent, id int, r *request, fx *fixture) error {
	var body struct {
		Builtin string  `json:"builtin"`
		Cell    string  `json:"cell"`
		N       int     `json:"n"`
		Slew    float64 `json:"slew"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil {
		return err
	}
	mod := netlist.RippleCarryAdder(16)
	if body.Builtin == "chain" {
		mod = netlist.Chain("chain", body.Cell, body.N)
	}
	var err error
	tr.timed("sta.run."+body.Builtin, parent, id, func() {
		_, err = sta.Run(fx.lib, mod, sta.Options{InputSlew: body.Slew,
			Families: []fit.Model{fit.ModelLVF, fit.ModelLVF2}})
	})
	return err
}

// parseLibrary times liberty.Parse + LoadLibrary of the fixture: the
// library half of every serving process's set-up.
func parseLibrary(rep *report, tr *tracer, fx *fixture) {
	var xs []float64
	for i := 0; i < 5; i++ {
		xs = append(xs, ms(tr.timed("liberty.parse", 0, 0, func() {
			if g, err := liberty.Parse(fx.text); err == nil {
				_, _ = liberty.LoadLibrary(g)
			}
		})))
	}
	rep.add("liberty.parse_ms", median(xs), "ms", len(xs))
}

// tableModel is the fit-free model lvf2d serves for lvf and lvf2 keys.
func tableModel(fx *fixture, k arcKey) (core.Model, error) {
	arc, ok := fx.lib.Cells[k.cell].Pins[k.out].ArcTo(k.from)
	if !ok {
		return core.Model{}, fmt.Errorf("fixture has no arc %s/%s->%s", k.cell, k.from, k.out)
	}
	tm := arc.Tables[k.base]
	if k.kind == "lvf" {
		th, err := tm.LVFAtPoint(k.slew, k.load)
		return core.FromLVF(th), err
	}
	return tm.ModelAtPoint(k.slew, k.load)
}

func modelKey(k arcKey) modelcache.ModelKey {
	return modelcache.ModelKey{LibHash: "fx", Cell: k.cell, OutputPin: k.out, RelatedPin: k.from,
		Base: k.base, Slew: k.slew, Load: k.load, Kind: fitKinds[k.kind]}
}

// synthArc is the synthetic cell arc behind a fixture arc: libgen -arcs 1
// characterises arc i of a cell type for its input pin i.
func synthArc(cell, from string) (cells.Arc, error) {
	ct, ok := cells.CellByName(cell)
	if !ok {
		return cells.Arc{}, fmt.Errorf("%s is not a synthetic cell type", cell)
	}
	pin := slices.Index(libbuild.InputPins(ct.Inputs), from)
	if pin < 0 {
		return cells.Arc{}, fmt.Errorf("cell %s has no input pin %s", cell, from)
	}
	return ct.Arcs()[pin], nil
}
