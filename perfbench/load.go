package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// degradedHeader tags an answer served by a fallback rung of lvf2d's
// degradation ladder; the benchmark counts it as a failed request.
const degradedHeader = "X-LVF2-Degraded"

// cdfSlack is the absolute decrease between successive CDF points the
// monotonicity check forgives: far-tail CDF values carry rounding error
// of a few ulps of 1 (about 1e-16), the same noise binning.Probabilities
// clamps; a real ordering error is many orders of magnitude larger.
const cdfSlack = 1e-12

// request is one HTTP operation of a workload's seeded request list.
type request struct {
	method string
	path   string // path and query
	body   []byte // POST body, nil for GET
	shape  string // binning | cdf | yield | ssta: what the checks parse
	label  string // refit kind, estimator or builtin, for per-layer splits
	key    arcKey // arc the request addresses (arc shapes only)
	refit  bool   // the key's kind needs a fit (not lvf/lvf2)
}

// sample is the client-side record of one completed request.
type sample struct {
	req     int           // index into the request list
	start   time.Duration // due time: when the request was sent, since the phase began
	ttfb    time.Duration // time to first response byte (traced runs only)
	latency time.Duration // send to body fully read
	err     error         // transport error or failed check
	body    []byte        // kept only when loadSpec.keepBodies is set
}

// loadSpec is one closed-loop phase: conns clients each send their next
// request only after the previous one completes.
type loadSpec struct {
	targets    []string // base URLs; operation i enters at targets[i%len]
	reqs       []request
	conns      int
	timed      time.Duration // >0: cycle the list for this long; 0: run it once
	trace      bool          // record time to first byte and send a request ID
	keepBodies bool
	// tick, when set, is called at the start of a timed phase and then
	// every window until the phase ends, with the time since it began.
	tick func(at time.Duration)
}

// window is the length of the sub-intervals a timed phase is split into;
// throughput and CPU per operation are medians over windows, so a burst
// of outside interference spoils one window, not the run.
const window = time.Second

// connections is the closed-loop client count: two, or fewer on a
// machine with fewer CPUs.
func connections() int { return min(2, runtime.NumCPU()) }

// runLoad executes one phase and returns its samples in completion
// order per client, concatenated, plus the phase's wall time.
func runLoad(ls loadSpec) ([]sample, time.Duration) {
	tr := &http.Transport{
		MaxIdleConnsPerHost: ls.conns,
		MaxConnsPerHost:     ls.conns,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	var next atomic.Int64
	per := make([][]sample, ls.conns)
	begin := time.Now()
	stop := make(chan struct{})
	var ticker sync.WaitGroup
	if ls.tick != nil {
		ls.tick(0)
		ticker.Add(1)
		go func() {
			defer ticker.Done()
			t := time.NewTicker(window)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					ls.tick(time.Since(begin))
				case <-stop:
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < ls.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				op := int(next.Add(1) - 1)
				if ls.timed > 0 {
					if time.Since(begin) >= ls.timed {
						return
					}
				} else if op >= len(ls.reqs) {
					return
				}
				i := op % len(ls.reqs)
				s := do(client, ls.targets[op%len(ls.targets)], &ls.reqs[i], op, ls.trace, begin)
				s.req = i
				if !ls.keepBodies {
					s.body = nil
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(begin)
	close(stop)
	ticker.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// do sends one request, reads the whole body and checks it.
func do(client *http.Client, base string, r *request, op int, traced bool, begin time.Time) sample {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	ctx := context.Background()
	var first time.Time
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return sample{err: err}
	}
	if traced {
		req.Header.Set("X-Request-Id", strconv.Itoa(op))
	}
	t0 := time.Now()
	s := sample{start: t0.Sub(begin)}
	resp, err := client.Do(req)
	if err != nil {
		s.latency, s.err = time.Since(t0), err
		return s
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(t0)
	if !first.IsZero() {
		s.ttfb = first.Sub(t0)
	}
	if err != nil {
		s.err = err
		return s
	}
	s.body = b
	s.err = check(r, resp.StatusCode, resp.Header.Get(degradedHeader), b)
	return s
}

// check is the per-response correctness contract: status 200, not
// degraded, and a well-formed answer for the request's shape.
func check(r *request, code int, degraded string, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, code, body)
	}
	if degraded != "" {
		return fmt.Errorf("%s %s: degraded answer (rung %s)", r.method, r.path, degraded)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s %.120s: %s", r.method, r.path, fmt.Sprintf(format, args...))
	}
	switch r.shape {
	case "binning":
		var b struct {
			Probabilities []float64 `json:"probabilities"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return bad("%v", err)
		}
		sum := 0.0
		for _, p := range b.Probabilities {
			if p < 0 {
				return bad("negative bin probability %g", p)
			}
			sum += p
		}
		if len(b.Probabilities) == 0 || math.Abs(sum-1) > 1e-9 {
			return bad("bin probabilities sum to %.17g", sum)
		}
	case "cdf":
		var c struct {
			Points []struct {
				CDF float64 `json:"cdf"`
			} `json:"points"`
		}
		if err := json.Unmarshal(body, &c); err != nil {
			return bad("%v", err)
		}
		if len(c.Points) == 0 {
			return bad("no CDF points")
		}
		prev := 0.0
		for _, p := range c.Points {
			if p.CDF < prev-cdfSlack || p.CDF < 0 || p.CDF > 1 {
				return bad("CDF not monotone in [0,1]: %g after %g", p.CDF, prev)
			}
			prev = max(prev, p.CDF)
		}
	case "yield":
		var y struct {
			Yield    map[string]float64 `json:"yield"`
			Estimate *struct {
				Yield float64 `json:"yield"`
			} `json:"estimate"`
		}
		if err := json.Unmarshal(body, &y); err != nil {
			return bad("%v", err)
		}
		if len(y.Yield) == 0 {
			return bad("no yield")
		}
		for fam, v := range y.Yield {
			if !(v >= 0 && v <= 1) {
				return bad("yield[%s] = %g outside [0,1]", fam, v)
			}
		}
		if r.label != "" && (y.Estimate == nil || !(y.Estimate.Yield >= 0 && y.Estimate.Yield <= 1)) {
			return bad("missing or invalid %s estimate", r.label)
		}
	case "ssta":
		var s struct {
			CriticalOutput string                     `json:"critical_output"`
			Arrivals       map[string]json.RawMessage `json:"arrivals"`
		}
		if err := json.Unmarshal(body, &s); err != nil {
			return bad("%v", err)
		}
		if s.CriticalOutput == "" || s.Arrivals[s.CriticalOutput] == nil {
			return bad("no critical output arrival")
		}
	default:
		return bad("unknown shape %q", r.shape)
	}
	return nil
}

// tally counts a phase's samples into the report and returns the
// latencies (ms) of the requests that passed.
func tally(rep *report, samples []sample) []float64 {
	var lat []float64
	for _, s := range samples {
		rep.attempted++
		if s.err != nil {
			rep.fail("%v", s.err)
			continue
		}
		lat = append(lat, ms(s.latency))
	}
	return lat
}

// mustPass runs a set-up or verification phase, which has no latency
// budget but must succeed completely.
func mustPass(ls loadSpec) ([]sample, error) {
	samples, _ := runLoad(ls)
	for _, s := range samples {
		if s.err != nil {
			return nil, s.err
		}
	}
	return samples, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
