package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/onesided"
	"repro/popmatch"
)

// syncWriter serializes handler writes against the test's read.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestStatsSnapshotKeys pins the exact key set of the /v1/stats snapshot:
// the flat counter map is a wire contract (the benchmark harness and
// operator scripts read it by name), so a key renamed or dropped by a stats
// refactor must fail here, byte for byte.
func TestStatsSnapshotKeys(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	want := []string{
		"abandoned",
		"batched_requests",
		"batches",
		"cache_entries",
		"cache_hits",
		"cache_misses",
		"coalesced",
		"instances",
		"max_batch",
		"rejected",
		"requests",
		"session_solves",
		"session_warm",
		"sessions",
		"solve_errors",
		"solves",
		"store_loaded",
		"uploads_binary",
		"uploads_text",
		"uptime_seconds",
	}
	m := s.Stats()
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("stats snapshot has %d keys, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stats snapshot key %d = %q, want %q (full set %v)", i, got[i], want[i], got)
		}
	}
}

// TestMetricsEndpoint drives real traffic and asserts /metrics exposes the
// core series in Prometheus text format: the counter block, the request and
// solve latency histograms, the per-mode solve counters and the table gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, h := newHTTPServer(t, Config{})
	info := h.upload(onesided.Solvable(rand.New(rand.NewSource(11)), 200, 51, 4))
	if _, st := h.solve(info.ID, popmatch.ModePopular); st != http.StatusOK {
		t.Fatalf("solve status %d", st)
	}
	if _, st := h.solve(info.ID, popmatch.ModePopular); st != http.StatusOK { // cache hit
		t.Fatalf("repeat solve status %d", st)
	}

	resp, err := h.c.Get(h.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE popserved_requests_total counter",
		"popserved_requests_total 2",
		"popserved_cache_hits_total 1",
		"popserved_solves_total 1",
		`popserved_mode_solves_total{mode="popular"} 1`,
		`popserved_mode_solves_total{mode="maxcard"} 0`,
		"# TYPE popserved_request_duration_seconds histogram",
		`popserved_request_duration_seconds_count{route="solve"} 2`,
		"popserved_solve_duration_seconds_count 1",
		"popserved_batch_flush_duration_seconds_count 1",
		"# TYPE popserved_instances gauge",
		"popserved_instances 1",
		"popserved_batches_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	// Histogram bucket series carry both the route label and le.
	if !strings.Contains(text, `popserved_request_duration_seconds_bucket{route="solve",le=`) {
		t.Fatalf("/metrics has no labeled request-duration buckets:\n%s", text)
	}
}

// TestSolveTraceHTTP exercises "trace": true end to end: the response must
// carry a per-phase breakdown of a real (uncached) solve, and traced requests
// must not populate the result cache.
func TestSolveTraceHTTP(t *testing.T) {
	s, h := newHTTPServer(t, Config{})
	info := h.upload(onesided.Solvable(rand.New(rand.NewSource(12)), 300, 76, 4))

	body, _ := json.Marshal(solveRequest{Instance: info.ID, Mode: "popular", Trace: true})
	var out solveResponse
	if st := h.do("POST", "/v1/solve", "application/json", body, &out); st != http.StatusOK {
		t.Fatalf("traced solve status %d", st)
	}
	if out.Cached {
		t.Fatal("traced solve reported cached=true")
	}
	if out.Trace == nil || out.Trace.DurationNs <= 0 || out.Trace.Rounds <= 0 {
		t.Fatalf("traced solve returned no usable trace: %+v", out.Trace)
	}
	var peelRounds int64
	for _, p := range out.Trace.Phases {
		if p.Name == "peel" {
			peelRounds = p.Rounds
		}
	}
	if peelRounds <= 0 {
		t.Fatalf("trace has no peel phase: %+v", out.Trace.Phases)
	}
	// An untraced solve does not reuse a trace-path result: the cache was
	// bypassed in both directions.
	if res, st := h.solve(info.ID, popmatch.ModePopular); st != http.StatusOK || res.Cached {
		t.Fatalf("solve after traced solve: status %d cached %v (traced requests must bypass the cache)", st, res.Cached)
	}
	if got := s.stats.Solves.Load(); got != 2 {
		t.Fatalf("solves = %d, want 2 (one traced, one batched)", got)
	}

	// Session solves speak the same trace dialect.
	var sessInfo SessionInfo
	creq, _ := json.Marshal(sessionCreateRequest{Instance: info.ID})
	if st := h.do("POST", "/v1/sessions", "application/json", creq, &sessInfo); st != http.StatusCreated {
		t.Fatalf("create session status %d", st)
	}
	sreq, _ := json.Marshal(sessionSolveRequest{Mode: "popular", Trace: true})
	var sout sessionSolveResponse
	if st := h.do("POST", "/v1/sessions/"+sessInfo.ID+"/solve", "application/json", sreq, &sout); st != http.StatusOK {
		t.Fatalf("traced session solve status %d", st)
	}
	if sout.Trace == nil || sout.Trace.Rounds <= 0 {
		t.Fatalf("traced session solve returned no usable trace: %+v", sout.Trace)
	}
}

// TestRequestIDs checks the id plumbing: a caller-supplied X-Request-Id is
// echoed back, a missing one is minted, and error bodies repeat the id.
func TestRequestIDs(t *testing.T) {
	_, h := newHTTPServer(t, Config{})

	req, err := http.NewRequest("POST", h.base+"/v1/solve", strings.NewReader(`{"instance": "nope", "mode": "popular"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "test-id-42")
	resp, err := h.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "test-id-42" {
		t.Fatalf("X-Request-Id = %q, want the caller's test-id-42", got)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "test-id-42" {
		t.Fatalf("error body request_id = %q, want test-id-42", e.RequestID)
	}
	if e.Error == "" {
		t.Fatal("error body has no error message")
	}

	resp2, err := h.c.Get(h.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("minted X-Request-Id = %q, want 16 hex chars", got)
	}
}

// TestAccessLog checks Config.Logger receives one structured line per
// request, carrying the request id.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	logger := slog.New(slog.NewTextHandler(&mu, nil))
	_, h := newHTTPServer(t, Config{Logger: logger})

	req, _ := http.NewRequest("GET", h.base+"/healthz", nil)
	req.Header.Set("X-Request-Id", "log-probe")
	resp, err := h.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.mu.Lock()
	line := buf.String()
	mu.mu.Unlock()
	for _, want := range []string{"request_id=log-probe", "method=GET", "path=/healthz", "status=200"} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %q in %q", want, line)
		}
	}
}
