package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/popmatch"
)

// span is one timed interval of one op. trace_id is the op's id; the request
// id the client sends as X-Request-Id is the span id of its HTTP exchange,
// so server-side spans join the client's by that header alone.
type span struct {
	Trace  string `json:"trace_id"`
	ID     string `json:"span_id"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. Recording is switched on
// only for the traced step; the untraced step of the same run measures the
// overhead.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu     sync.Mutex
	spans  []span
	ttfb   []float64 // ms, request written → first response byte
	body   []float64 // ms, first response byte → body read
	kernel kernelAgg
}

// kernelAgg sums the popmatch.SolveTrace of every traced kernel solve.
type kernelAgg struct {
	solves, rounds, work  int64
	durationNs, barrierNs int64
	phases                map[string]int64 // ns per phase name
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// opTrace collects one op's client-side spans; it is flushed into the tracer
// when the op ends. A nil *opTrace records nothing.
type opTrace struct {
	t      *tracer
	id     string
	cursor time.Time // where the next request's connection wait starts
	spans  []span
	ttfb   []float64
	body   []float64
}

// begin starts op i's trace, or returns nil when tracing is off.
func (t *tracer) begin(i int64, start time.Time) *opTrace {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &opTrace{t: t, id: strconv.FormatInt(i, 10), cursor: start}
}

// end records the op's root span and flushes its children.
func (t *tracer) end(ot *opTrace, start, end time.Time) {
	if ot == nil {
		return
	}
	ot.spans = append(ot.spans, span{Trace: ot.id, ID: ot.id, Name: "bench.op", Start: t.ns(start), End: t.ns(end)})
	t.mu.Lock()
	t.spans = append(t.spans, ot.spans...)
	t.ttfb = append(t.ttfb, ot.ttfb...)
	t.body = append(t.body, ot.body...)
	t.mu.Unlock()
}

// child records a span under parent ("" = under the op's root).
func (ot *opTrace) child(name, id, parent string, start, end time.Time) {
	if ot == nil {
		return
	}
	if parent == "" {
		parent = ot.id
	}
	ot.spans = append(ot.spans, span{Trace: ot.id, ID: id, Parent: parent, Name: name, Start: ot.t.ns(start), End: ot.t.ns(end)})
}

// call records a library call the op made directly.
func (ot *opTrace) call(name string, start, end time.Time) {
	if ot != nil {
		ot.child(name, ot.id+"/call", "", start, end)
	}
}

// addSolve folds one traced kernel solve into the run's totals.
func (t *tracer) addSolve(st *popmatch.SolveTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := &t.kernel
	k.solves++
	k.rounds += st.Rounds
	k.work += st.Work
	k.durationNs += st.DurationNs
	k.barrierNs += st.BarrierWaitNs
	if k.phases == nil {
		k.phases = make(map[string]int64)
	}
	for _, p := range st.Phases {
		k.phases[p.Name] += p.DurationNs
	}
}

// wrap returns a server handler that, while tracing is on, leaves a span per
// request named after its layer and route; a nil tracer returns h itself.
// The request id is the client's exchange span; behind the router, a shard's
// span hangs under the router's.
func (t *tracer) wrap(layer string, behindRouter bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		rid := r.Header.Get("X-Request-Id")
		s := span{ID: rid + "/" + layer, Parent: rid, Start: t.ns(start), End: t.ns(end)}
		s.Trace, _, _ = strings.Cut(rid, ".")
		if layer == "shard" {
			s.Name = "shard.handler"
		} else {
			s.Name = "serve.handler_" + route(r)
			if behindRouter {
				s.Parent = rid + "/shard"
			}
		}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	})
}

// route names the popserved route a request takes.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/solve":
		return "solve"
	case r.Method == http.MethodPost && p == "/v1/instances":
		return "upload"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/instances/"):
		return "evict"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/mutations"):
		return "mutate"
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/v1/sessions/") && strings.HasSuffix(p, "/solve"):
		return "session_solve"
	}
	return "other"
}

// layerAgg summarizes the spans of one name, in milliseconds.
type layerAgg struct {
	durs     []float64
	dur, own float64 // summed durations and self times
}

func (a *layerAgg) count() float64 { return float64(len(a.durs)) }

// aggregate groups spans by name with their self times: a span's duration
// minus the part of it that the union of its children covers.
func aggregate(spans []span) map[string]*layerAgg {
	self := selfTimes(spans)
	out := make(map[string]*layerAgg)
	for i, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &layerAgg{}
			out[s.Name] = a
		}
		d := float64(s.End-s.Start) / 1e6
		a.durs = append(a.durs, d)
		a.dur += d
		a.own += float64(self[i]) / 1e6
	}
	return out
}

// selfTimes returns, per span, its duration minus the length of the union of
// its children's intervals clipped to it.
func selfTimes(spans []span) []int64 {
	kids := make(map[string][][2]int64)
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs within [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
