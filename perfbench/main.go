// Command perfbench is the repository benchmark. It drives the real
// lvf2d, libgen and liblint binaries on loopback, checks every answer,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is one JSON result object.
//
// perfbench/run.sh builds the binaries from the tree and runs it from
// the repository root:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --compare base-dir change-dir
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a
// separate traced run. See perfbench/README.md for why each workload
// exists, which layer metric should move which end-to-end metric, and
// how the traced run derives self time.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// endToEnd are the metrics of an untraced run, in print order, with
// their units. BENCHMARK.json declares the same set (pinned by a test).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
	{"cdf_rmse", "frac"},
	{"binning_err", "frac"},
}

// perLayer are the metrics of a traced run. Every workload prints every
// one; a layer a workload bypasses reads 0 (the "should not move" side
// of the layer table in README.md).
var perLayer = []metricDef{
	{"server.handler_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.ttfb_ms", "ms"},
	{"modelcache.hits", "count"},
	{"modelcache.misses", "count"},
	{"modelcache.coalesced", "count"},
	{"modelcache.evictions", "count"},
	{"modelcache.hit_ratio", "frac"},
	{"modelcache.lookup_us", "us"},
	{"binning.eval_us", "us"},
	{"binning.cdf_grid_us", "us"},
	{"stats.quantile_ms", "ms"},
	{"fit.refit_ms.norm2", "ms"},
	{"fit.refit_ms.lesn", "ms"},
	{"fit.refit_ms.lsn", "ms"},
	{"fit.refit_ms.ln", "ms"},
	{"fit.refit_ms.gaussian", "ms"},
	{"fit.lvf2_ms", "ms"},
	{"fit.validate_ms", "ms"},
	{"fit.warm_hits", "count"},
	{"fit.warm_rejected", "count"},
	{"fit.fallbacks", "count"},
	{"sta.calls", "count"},
	{"sta.run_ms.rca16", "ms"},
	{"sta.run_ms.chain", "ms"},
	{"yield.estimate_ms.mnis", "ms"},
	{"yield.estimate_ms.ais", "ms"},
	{"yield.samples", "count"},
	{"ring.owner_us", "us"},
	{"replication.forwarded_share", "frac"},
	{"replication.forward_ms", "ms"},
	{"replication.retries", "count"},
	{"replication.local_fallbacks", "count"},
	{"liberty.parse_ms", "ms"},
	{"liberty.write_ms", "ms"},
	{"cells.characterize_ms", "ms"},
	{"checkpoint.journal_ms", "ms"},
	{"checkpoint.bytes", "count"},
	{"libbuild.build_ms", "ms"},
	{"pool.parallel_eff", "frac"},
	{"client.cpu_ms_per_op", "ms"},
	{"trace.overhead", "frac"},
	{"trace.spans", "count"},
	{"proc.servers_started", "count"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"serve-warm":    runServeWarm,
	"serve-compute": runServeCompute,
	"serve-fleet":   runServeFleet,
	"libgen":        runLibgen,
}

// Paths relative to the repository root, where run.sh starts perfbench.
const (
	workDir     = ".bench_build"     // everything a run writes
	binDir      = ".bench_build/bin" // lvf2d, libgen and liblint, built by run.sh
	fixturePath = "perfbench/fixture/fx.lib"
)

// env is everything a workload run needs from the command line.
type env struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string // this run's scratch directory under workDir
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: serve-warm | serve-compute | serve-fleet | libgen")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 15, "measured seconds (serve-warm, serve-fleet) or work size (serve-compute, libgen)")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result directories: --compare BASE CHANGE")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("--compare takes two result directories"))
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	for _, path := range []string{binDir + "/lvf2d", binDir + "/libgen", binDir + "/liblint", fixturePath} {
		if _, err := os.Stat(path); err != nil {
			fatal(fmt.Errorf("run from the repository root after building (see run.sh): %w", err))
		}
	}
	dir, err := os.MkdirTemp(workDir, "run-"+*workload+"-")
	if err != nil {
		fatal(err)
	}
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, work: dir}
	rep, err := run(e)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	// Keep the traces; everything else in the run directory (journals,
	// emitted libraries, server logs) goes.
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", dir, err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
		rep.fillBypassed(defs)
	}
	rep.print(os.Stdout)
	res, err := rep.result(defs)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// report collects a run's metrics and its operation tally.
type report struct {
	attempted, failed int
	failures          []string // first few failure messages, for the log
	entries           []entry
}

// entry is one printed metric. n is the number of samples the value
// summarises (1 for a single measurement or an exact count).
type entry struct {
	name  string
	value float64
	unit  string
	n     int
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.entries = append(r.entries, entry{name, value, unit, n})
}

// fail counts one failed operation and keeps its message for the log.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) lookup(name string) (entry, bool) {
	for _, e := range r.entries {
		if e.name == name {
			return e, true
		}
	}
	return entry{}, false
}

// fillBypassed reports every layer the workload did not exercise as 0
// with no samples: the bypass side of the layer table in README.md.
func (r *report) fillBypassed(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.lookup(d.name); !ok {
			r.add(d.name, 0, d.unit, 0)
		}
	}
}

// print writes the human-readable table: every metric with its unit and
// sample count, then the operation tally and any failures.
func (r *report) print(w io.Writer) {
	for _, e := range r.entries {
		fmt.Fprintf(w, "%-30s %16.6g %-6s n=%d\n", e.name, e.value, e.unit, e.n)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-30s %16.6g %-6s n=%d\n", "failed_frac", frac, "frac", r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the declared metrics. A declared metric the run did not
// measure is a benchmark bug, reported as an error rather than a zero.
func (r *report) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(defs)),
	}
	for _, d := range defs {
		e, ok := r.lookup(d.name)
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if e.unit != d.unit {
			return res, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, e.unit, d.unit)
		}
		res.Metrics[d.name] = resultValue{Value: e.value, Unit: e.unit}
	}
	return res, nil
}
