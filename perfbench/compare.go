package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet maps workload → metric → the values of every run.
type resultSet map[string]map[string][]float64

// loadResults reads a result directory: one file per run, named
// <workload>.<anything>, holding the run's standard output (the JSON
// result is its last line).
func loadResults(dir string) (resultSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := resultSet{}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		workload, _, _ := strings.Cut(ent.Name(), ".")
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", ent.Name(), err)
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			set[workload][name] = append(set[workload][name], v.Value)
		}
	}
	return set, nil
}

// comparison is one row of the compare table.
type comparison struct {
	base, change [3]float64 // Q1, median, Q3
	rel          float64    // relative change of the median, change vs base
	verdict      string
}

// compareMetric applies the benchmark's rule to one workload and
// metric. A metric with no bound (per-layer) is only reported. With a
// bound, a metric whose own spread — the quartile distance as a share
// of the median, on either side — exceeds the bound is unresolved,
// unless every change run reads better than every base run.
func compareMetric(base, change []float64, better string, bound float64) comparison {
	var c comparison
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.change[0], c.change[1], c.change[2] = quartiles(change)
	c.rel = (c.change[1] - c.base[1]) / math.Abs(c.base[1])
	if c.base[1] == 0 {
		c.rel = 0
	}
	if bound == 0 {
		c.verdict = "no bound"
		return c
	}
	sign := 1.0 // >0 means worse
	if better == "higher" {
		sign = -1
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	allBetter := true
	for _, b := range base {
		for _, x := range change {
			allBetter = allBetter && sign*(x-b) < 0
		}
	}
	switch {
	case allBetter:
		c.verdict = "better"
	case spread(c.base) > bound || spread(c.change) > bound:
		c.verdict = "unresolved"
	case sign*c.rel > bound:
		c.verdict = "REGRESSED"
	default:
		c.verdict = "within bound"
	}
	return c
}

// runCompare prints, per workload and metric, each side's median and
// quartiles, the relative change and the verdict against the bound.
func runCompare(w io.Writer, defPath, baseDir, changeDir string) error {
	b, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	base, err := loadResults(baseDir)
	if err != nil {
		return err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return err
	}
	var names []string
	for wl := range base {
		if change[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-28s %33s %33s %9s  %s\n", "workload", "metric",
		"base median [q1, q3] (n)", "change median [q1, q3] (n)", "change", "verdict")
	for _, wl := range names {
		var metrics []string
		for m := range base[wl] {
			if change[wl][m] != nil {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			better, bound := "", 0.0
			for _, d := range def.EndToEnd {
				if d.Name == m {
					better, bound = d.Better, d.Bound
				}
			}
			bv, cv := base[wl][m], change[wl][m]
			c := compareMetric(bv, cv, better, bound)
			side := func(q [3]float64, n int) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", q[1], q[0], q[2], n)
			}
			verdict := c.verdict
			if bound > 0 {
				verdict = fmt.Sprintf("%s (bound %g)", verdict, bound)
			}
			fmt.Fprintf(w, "%-14s %-28s %33s %33s %+8.2f%%  %s\n", wl, m,
				side(c.base, len(bv)), side(c.change, len(cv)), 100*c.rel, verdict)
		}
	}
	return nil
}
