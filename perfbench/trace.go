package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed interval of a traced run. Spans of one request share
// req; parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span that end closes, so that children can name it as
// their parent while it runs.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// timed runs f as a span and returns the span's duration.
func (t *tracer) timed(name string, parent, req int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

// clientSpans records, per request of a traced load phase, a root span
// from due time to body read and a child span ending at the first
// response byte. The request id is the one sent in X-Request-Id.
func (t *tracer) clientSpans(samples []sample) {
	for _, s := range samples {
		due := t.t0.Add(s.start)
		root := t.add("client.request", 0, s.req, due, due.Add(s.latency))
		if s.ttfb > 0 {
			t.add("client.first_byte", root, s.req, due, due.Add(s.ttfb))
		}
	}
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func (t *tracer) selfTime(id int) time.Duration {
	parent := t.spans[id-1]
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Parent == id {
			iv = append(iv, [2]int64{max(s.Start, parent.Start), min(s.End, parent.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64 = 0, parent.Start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			covered += v[1] - lo
			reach = v[1]
		}
	}
	return parent.dur() - time.Duration(covered)
}

// write saves the spans as JSON lines under the benchmark's traces
// directory and reports their count.
func (t *tracer) write(e *env, rep *report) error {
	dir := filepath.Join(filepath.Dir(e.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.add("trace.spans", float64(len(t.spans)), "count", 1)
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}

// byName groups span durations (ms) by span name.
func (t *tracer) byName() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// ------------------------------------------------------------- /metrics

// scrapeAll reads every process's /metrics and sums each series.
func scrapeAll(ss []*daemon) (map[string]float64, error) {
	total := map[string]float64{}
	for _, s := range ss {
		resp, err := http.Get(s.url + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			total[line[:i]] += v
		}
	}
	return total, nil
}

// delta sums after−before over the series named name whose labels
// contain every given label (e.g. `outcome="ok"`).
func delta(before, after map[string]float64, name string, labels ...string) float64 {
	var d float64
	for series, v := range after {
		base, lab, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(lab, l)
		}
		if match {
			d += v - before[series]
		}
	}
	return d
}

// counterMetrics turns the /metrics deltas over the timed phases into
// layer counts: model-cache traffic, SSTA calls, yield samples and the
// peer-forwarding path.
func counterMetrics(rep *report, before, after map[string]float64, requests int) {
	d := func(name string, labels ...string) float64 { return delta(before, after, name, labels...) }
	hits, misses := d("lvf2d_cache_model_hits"), d("lvf2d_cache_model_misses")
	rep.add("modelcache.hits", hits, "count", 1)
	rep.add("modelcache.misses", misses, "count", 1)
	rep.add("modelcache.coalesced", d("lvf2d_cache_model_coalesced"), "count", 1)
	rep.add("modelcache.evictions", d("lvf2d_cache_model_evictions"), "count", 1)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rep.add("modelcache.hit_ratio", ratio, "frac", int(hits+misses))
	rep.add("sta.calls", d("lvf2d_request_seconds_v1_ssta_count"), "count", 1)
	rep.add("yield.samples", d("lvf2_yield_samples_total"), "count", 1)
	fwd := d("lvf2d_peer_requests_total", `outcome="ok"`)
	rep.add("replication.forwarded_share", fwd/float64(max(1, requests)), "frac", requests)
	fwdMS := 0.0
	if n := d("lvf2d_peer_forward_seconds_count"); n > 0 {
		fwdMS = 1000 * d("lvf2d_peer_forward_seconds_sum") / n
	}
	rep.add("replication.forward_ms", fwdMS, "ms", int(d("lvf2d_peer_forward_seconds_count")))
	rep.add("replication.retries", d("lvf2d_peer_requests_total", `outcome="retry"`), "count", 1)
	rep.add("replication.local_fallbacks", d("lvf2d_peer_requests_total", `outcome="local_fallback"`), "count", 1)
}
