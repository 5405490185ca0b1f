package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"lvf2/internal/binning"
)

func testFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := loadFixture("fixture/fx.lib")
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// Two independent evaluations of the quality metrics must agree to the
// bit: the verification set, its golden samples and the summation order
// are all fixed.
func TestQualityBitIdentical(t *testing.T) {
	fx := testFixture(t)
	var got [2]*report
	for i := range got {
		got[i] = &report{}
		if err := verifyEmitted(got[i], fx, fx.text); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"cdf_rmse", "binning_err"} {
		a, _ := got[0].lookup(name)
		b, _ := got[1].lookup(name)
		if math.Float64bits(a.value) != math.Float64bits(b.value) || !(a.value > 0) {
			t.Errorf("%s: %v then %v, want identical and positive", name, a.value, b.value)
		}
	}
}

// The scores computed from CDF values at the verification points are
// the paper's metrics as binning.Evaluate computes them from the model.
func TestScoresMatchBinningEvaluate(t *testing.T) {
	fx := testFixture(t)
	pts, err := verificationSet(fx)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		m, err := tableModel(fx, p.key())
		if err != nil {
			t.Fatal(err)
		}
		d := m.Dist()
		cdf := make([]float64, len(p.xs))
		for j, x := range p.xs {
			cdf[j] = d.CDF(x)
		}
		rmse, berr := p.scores(cdf)
		want := binning.Evaluate(d, p.golden)
		if math.Abs(rmse-want.CDFRMSE) > 1e-12 || math.Abs(berr-want.BinErr) > 1e-12 {
			t.Errorf("point %d: rmse %v binErr %v, binning.Evaluate gives %v %v", i, rmse, berr, want.CDFRMSE, want.BinErr)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{100, 0.99, 99, false},
		{1000, 0.99, 990, true},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("p%v of 1..%d = %v (supported %v), want %v (%v)", c.p*100, c.n, v, ok, c.want, c.ok)
		}
	}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", 0.1, "within bound"},
		{"slower", []float64{130, 131, 129, 130, 130}, "lower", 0.1, "REGRESSED"},
		{"faster", []float64{80, 81, 79, 80, 80}, "lower", 0.1, "better"},
		{"throughput drop", []float64{80, 81, 79, 80, 80}, "higher", 0.1, "REGRESSED"},
		{"noisy", []float64{60, 140, 100, 70, 130}, "lower", 0.1, "unresolved"},
		{"layer", []float64{130, 130, 130}, "", 0, "no bound"},
	} {
		if got := compareMetric(steady, c.change, c.better, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json declares exactly the metrics perfbench prints.
func TestBenchmarkJSONMatchesPerfbench(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, perfbench prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s %s, perfbench prints %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, perfbench has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
	}
}

func TestCheckRejectsMalformedAnswers(t *testing.T) {
	bin := &request{method: "GET", path: "/v1/arc/binning", shape: "binning"}
	cdf := &request{method: "GET", path: "/v1/arc/cdf", shape: "cdf"}
	for _, c := range []struct {
		name     string
		r        *request
		code     int
		degraded string
		body     string
		ok       bool
	}{
		{"good bins", bin, 200, "", `{"probabilities":[0.25,0.25,0.5]}`, true},
		{"bins off by 1e-6", bin, 200, "", `{"probabilities":[0.25,0.25,0.500001]}`, false},
		{"degraded", bin, 200, "lvf", `{"probabilities":[1]}`, false},
		{"shed", bin, 503, "", `{"error":"shed"}`, false},
		{"monotone cdf", cdf, 200, "", `{"points":[{"cdf":0},{"cdf":0.5},{"cdf":1}]}`, true},
		{"rounding noise", cdf, 200, "", `{"points":[{"cdf":1e-16},{"cdf":0},{"cdf":1}]}`, true},
		{"decreasing cdf", cdf, 200, "", `{"points":[{"cdf":0.6},{"cdf":0.5}]}`, false},
	} {
		err := check(c.r, c.code, c.degraded, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	at := func(ns int) time.Time { return tr.t0.Add(time.Duration(ns)) }
	root := tr.add("root", 0, 1, at(0), at(100))
	tr.add("a", root, 1, at(10), at(40))
	tr.add("b", root, 1, at(30), at(50))  // overlaps a by 10
	tr.add("c", root, 1, at(90), at(120)) // runs past the parent's end
	if got := tr.selfTime(root); got != 100-40-10 {
		t.Errorf("self time %v, want 50ns", got)
	}
}

// Every serve-compute list holds the same mix whatever the seed, and no
// key repeats or lies on the grid the warm workloads use.
func TestComputeListFixedWork(t *testing.T) {
	fx := testFixture(t)
	grid := map[arcKey]bool{}
	for _, k := range fx.gridKeys() {
		grid[k] = true
	}
	var mix [2]map[string]int
	for i, seed := range []uint64{1, 99} {
		mix[i] = map[string]int{}
		seen := map[arcKey]bool{}
		for _, r := range computeList(fx, seed, 0, 3) {
			mix[i][r.label]++
			if r.shape == "ssta" {
				continue
			}
			if seen[r.key] || grid[r.key] {
				t.Errorf("seed %d: key %+v repeats or is a warm grid key", seed, r.key)
			}
			seen[r.key] = true
		}
	}
	if len(mix[0]) != 9 {
		t.Errorf("mix has %d request types, want 9", len(mix[0]))
	}
	for label, n := range mix[0] {
		if n != 3 || mix[1][label] != 3 {
			t.Errorf("%s: %d and %d per list, want 3 each", label, n, mix[1][label])
		}
	}
}
