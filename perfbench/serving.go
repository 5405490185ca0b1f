package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"
)

// setupRepeats is how many times a run boots its processes (and warms
// them, where the workload warms); setup_s is the median. Only the last
// boot is measured.
const setupRepeats = 7

// refitKinds are the model kinds lvf2d must refit from a quantile sample.
var refitKinds = []string{"norm2", "lesn", "lsn", "ln", "gaussian"}

// servingPlan describes one serving workload.
type servingPlan struct {
	replicas int
	warm     bool // warm every grid key through every replica during set-up
	// lists builds the timed request list of one phase. Serve-compute
	// asks for a fresh list per phase so no phase inherits another's
	// cache entries.
	lists func(phase int) []request
	// fixed replays lists(phase) once (fixed work) instead of cycling it
	// for the run's seconds.
	fixed bool
}

func runServeWarm(e *env) (*report, error) {
	fx, err := loadFixture(fixturePath)
	if err != nil {
		return nil, err
	}
	reqs := warmList(fx, e.seed)
	return runServing(e, fx, servingPlan{replicas: 1, warm: true,
		lists: func(int) []request { return reqs }})
}

func runServeFleet(e *env) (*report, error) {
	fx, err := loadFixture(fixturePath)
	if err != nil {
		return nil, err
	}
	reqs := warmList(fx, e.seed)
	return runServing(e, fx, servingPlan{replicas: 3, warm: true,
		lists: func(int) []request { return reqs }})
}

func runServeCompute(e *env) (*report, error) {
	fx, err := loadFixture(fixturePath)
	if err != nil {
		return nil, err
	}
	// An untraced run replays computeRounds(seconds) rounds; a traced
	// run splits them over its untraced and traced phases.
	rounds := computeRounds(e.seconds)
	if e.trace {
		rounds = max(1, rounds/2)
	}
	return runServing(e, fx, servingPlan{replicas: 1, fixed: true,
		lists: func(phase int) []request { return computeList(fx, e.seed, phase, rounds) }})
}

// computeRounds sizes serve-compute: one round is about two seconds of
// work for two connections on a 2-vCPU machine, so the list runs about
// twice the requested seconds. The longer run averages over more of a
// shared machine's speed swings, and leaves enough requests for a p90.
func computeRounds(seconds int) int { return seconds }

// warmList is the seeded serve-warm request list: a binning, a CDF and
// an analytic yield query for every on-grid lvf/lvf2 key of the fixture,
// in seeded order. Every seed asks for the same work; only the order
// differs.
func warmList(fx *fixture, seed uint64) []request {
	var reqs []request
	for _, k := range fx.gridKeys() {
		q := k.query()
		reqs = append(reqs,
			request{method: "GET", path: "/v1/arc/binning?" + q, shape: "binning", key: k},
			request{method: "GET", path: "/v1/arc/cdf?" + q, shape: "cdf", key: k},
			request{method: "GET", path: "/v1/yield?" + q, shape: "yield", key: k})
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// warmupList requests every grid key once (a binning query each).
func warmupList(fx *fixture) []request {
	keys := fx.gridKeys()
	reqs := make([]request, len(keys))
	for i, k := range keys {
		reqs[i] = request{method: "GET", path: "/v1/arc/binning?" + k.query(), shape: "binning", key: k}
	}
	return reqs
}

// computeList is the serve-compute list of one phase. Every round holds
// the same mix: one refit per refit kind, one mnis and one ais 4σ yield
// estimate, one rca16 and one chain SSTA. Arc keys are distinct and
// off-grid, so every refit and every yield query misses the model cache.
// The keys come from a fixed stream per phase, so every seed asks for
// the same work (a yield estimate's cost depends strongly on its arc);
// the seed orders it.
func computeList(fx *fixture, seed uint64, phase, rounds int) []request {
	rng := rand.New(rand.NewPCG(0xc0de, uint64(phase)))
	seen := map[arcKey]bool{}
	fresh := func(kind string) arcKey {
		for {
			k := fx.offGridKey(rng, kind)
			if !seen[k] {
				seen[k] = true
				return k
			}
		}
	}
	cellNames := strings.Split(fixtureCells, ",")
	var reqs []request
	for r := 0; r < rounds; r++ {
		for _, kind := range refitKinds {
			k := fresh(kind)
			reqs = append(reqs, request{method: "GET", path: "/v1/arc/binning?" + k.query(),
				shape: "binning", label: kind, key: k, refit: true})
		}
		for _, est := range []string{"mnis", "ais"} {
			k := fresh("lvf2")
			reqs = append(reqs, request{method: "GET", path: "/v1/yield?" + k.query() + "&sigma=4&estimator=" + est,
				shape: "yield", label: est, key: k})
		}
		slew := 0.005 + 0.045*rng.Float64()
		rca, _ := json.Marshal(map[string]any{"lib": "fx", "builtin": "rca16", "slew": slew})
		chain, _ := json.Marshal(map[string]any{"lib": "fx", "builtin": "chain",
			"cell": cellNames[rng.IntN(len(cellNames))], "n": 8 + rng.IntN(9), "slew": slew})
		reqs = append(reqs,
			request{method: "POST", path: "/v1/ssta", body: rca, shape: "ssta", label: "rca16"},
			request{method: "POST", path: "/v1/ssta", body: chain, shape: "ssta", label: "chain"})
	}
	order := rand.New(rand.NewPCG(seed, uint64(phase)))
	order.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// bootFleet starts n lvf2d processes (a static fleet with ids a, b, c...
// when n > 1) and waits until every one answers /readyz.
func bootFleet(e *env, n int) ([]*daemon, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	var ss []*daemon
	for i, addr := range addrs {
		var extra []string
		if n > 1 {
			var peers []string
			for j, other := range addrs {
				if j != i {
					peers = append(peers, fmt.Sprintf("%c=http://%s", 'a'+j, other))
				}
			}
			extra = []string{"-peer-id", string(rune('a' + i)), "-peers", strings.Join(peers, ",")}
		}
		s, err := startServer(e, addr, extra...)
		if err != nil {
			stopAll(ss)
			return nil, err
		}
		ss = append(ss, s)
	}
	for _, s := range ss {
		if err := s.waitReady(60 * time.Second); err != nil {
			stopAll(ss)
			return nil, err
		}
	}
	return ss, nil
}

func urls(ss []*daemon) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.url
	}
	return out
}

// runServing boots the processes setupRepeats times, runs the timed
// phase against the last boot, verifies answer quality, and in a traced
// run adds the per-layer metrics.
func runServing(e *env, fx *fixture, plan servingPlan) (*report, error) {
	rep := &report{}
	var live []*daemon
	defer func() { stopAll(live) }()
	started := 0
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		stopAll(live)
		live = nil
		t0 := time.Now()
		ss, err := bootFleet(e, plan.replicas)
		if err != nil {
			return nil, err
		}
		live, started = ss, started+len(ss)
		if plan.warm {
			// Through every replica: on a fleet, the owner caches the
			// key and the other replicas forward to it.
			for _, u := range urls(live) {
				if _, err := mustPass(loadSpec{targets: []string{u}, reqs: warmupList(fx), conns: connections()}); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.add("setup_s", median(setups), "s", len(setups))

	phase := func(n int, traced bool) loadSpec {
		ls := loadSpec{targets: urls(live), reqs: plan.lists(n), conns: connections(), trace: traced}
		if !plan.fixed {
			ls.timed = time.Duration(e.seconds) * time.Second
			if e.trace {
				ls.timed /= 2
			}
		}
		return ls
	}

	before, err := scrapeAll(live)
	if err != nil {
		return nil, err
	}
	ls := phase(0, false)
	var marks []cpuMark
	var markErr error
	ls.tick = func(at time.Duration) {
		c, err := serversCPU(live)
		if err != nil {
			markErr = err
		}
		marks = append(marks, cpuMark{at, c})
	}
	self0 := selfCPU()
	samples, wall := runLoad(ls)
	selfUsed := selfCPU() - self0
	if plan.fixed {
		ls.tick(wall)
	}
	if markErr != nil {
		return nil, markErr
	}
	rss, err := serversRSS(live)
	if err != nil {
		return nil, err
	}
	lat := tally(rep, samples)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request passed its checks: %s", rep.failures[0])
	}
	ok := float64(len(lat))
	rates, cpuPerOp := windows(samples, marks)
	if plan.fixed {
		// A fixed list holds a few slow operations, so the phase is one
		// window, and its throughput ends when the last request is sent:
		// the drain after it, with one client idle, depends on which
		// request came last, not on the server.
		var last time.Duration
		for _, s := range samples {
			last = max(last, s.start)
		}
		rates, _ = windows(samples, []cpuMark{marks[0], {at: last}})
		_, cpuPerOp = windows(samples, []cpuMark{marks[0], marks[len(marks)-1]})
	}
	rep.add("ops_per_s", median(rates), "1/s", len(rates))
	rep.add("p50_ms", median(lat), "ms", len(lat))
	for _, p := range []struct {
		name string
		q    float64
	}{{"p90_ms", 0.90}, {"p99_ms", 0.99}} {
		// Printed only where at least ten samples lie beyond; never
		// part of the result line, since not every workload supports it.
		if v, supported := percentile(lat, p.q); supported {
			rep.add(p.name, v, "ms", len(lat))
		}
	}
	rep.add("cpu_ms_per_op", median(cpuPerOp), "ms", len(cpuPerOp))
	rep.add("rss_mb", rss, "MB", len(live))
	rep.add("client.cpu_ms_per_op", ms(selfUsed)/ok, "ms", len(lat))

	var tr *tracer
	if e.trace {
		tr = newTracer()
		tsamples, twall := runLoad(phase(1, true))
		tlat := tally(rep, tsamples)
		tr.clientSpans(tsamples)
		rep.add("trace.overhead", 1-(float64(len(tlat))/twall.Seconds())/(ok/wall.Seconds()), "frac", len(tlat))
		rep.add("server.ttfb_ms", median(ttfbs(tsamples)), "ms", len(tsamples))
		samples = append(samples, tsamples...)
	}
	after, err := scrapeAll(live)
	if err != nil {
		return nil, err
	}
	counterMetrics(rep, before, after, len(samples))

	if err := verifyServed(rep, fx, live); err != nil {
		return nil, err
	}
	stopAll(live)
	live = nil
	if e.trace {
		rep.add("proc.servers_started", float64(started), "count", 1)
		if err := replayServing(rep, tr, fx, plan, phase(0, false).reqs); err != nil {
			return nil, err
		}
		if err := tr.write(e, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// cpuMark is the servers' total CPU time at a point of a timed phase.
type cpuMark struct {
	at, cpu time.Duration
}

// windows splits a phase at its CPU marks and returns, per window that
// completed a request, the verified operations per second and the
// server CPU milliseconds per operation.
func windows(samples []sample, marks []cpuMark) (rates, cpuPerOp []float64) {
	for k := 0; k+1 < len(marks); k++ {
		lo, hi := marks[k].at, marks[k+1].at
		n := 0
		for _, s := range samples {
			if done := s.start + s.latency; s.err == nil && done >= lo && done < hi {
				n++
			}
		}
		if n > 0 && hi > lo {
			rates = append(rates, float64(n)/(hi-lo).Seconds())
			cpuPerOp = append(cpuPerOp, ms(marks[k+1].cpu-marks[k].cpu)/float64(n))
		}
	}
	return rates, cpuPerOp
}

func ttfbs(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.err == nil {
			out = append(out, ms(s.ttfb))
		}
	}
	return out
}
