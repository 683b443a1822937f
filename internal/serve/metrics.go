package serve

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/popmatch"
)

// serverMetrics is the server's registered metric surface: the Stats counter
// block re-registered under Prometheus names, latency histograms for the
// request, kernel-solve and flight paths, per-mode solve counters,
// and callback gauges over the registry/session/cache tables. Everything is
// backed by obs primitives — the hot paths do atomic adds on plain struct
// fields; the registry only names them for /metrics exposition.
type serverMetrics struct {
	reg obs.Registry

	// reqSolve/reqSession time full Server.Solve / Server.SolveSession calls
	// (cache hits included — this is the server-side request latency that
	// the bench harness compares against client-observed percentiles).
	reqSolve   *obs.Histogram
	reqSession *obs.Histogram
	// solve times individual kernel solves; flush times flights from start
	// to result (solve-slot wait plus solve).
	solve *obs.Histogram
	flush *obs.Histogram

	// mode counts kernel solves by solve mode, one series per mode of the
	// shared engine enum.
	mode map[popmatch.Mode]*obs.Counter
}

// newServerMetrics builds and registers the metric surface of s. Called once
// from New before any request; the gauges close over the server's
// tables, so they report live values at exposition time.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{mode: make(map[popmatch.Mode]*obs.Counter, len(popmatch.Modes))}
	r := &m.reg
	st := &s.stats

	for _, c := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"popserved_requests_total", "Solve requests naming a registered instance or live session, admission refusals included.", &st.Requests},
		{"popserved_rejected_total", "Requests refused by admission control (too many flights waiting for a solve slot).", &st.Rejected},
		{"popserved_cache_hits_total", "Requests answered from the result cache.", &st.CacheHits},
		{"popserved_cache_misses_total", "Requests the result cache could not answer.", &st.CacheMisses},
		{"popserved_batches_total", "Solve flights started, one per cache-missing (instance, mode) not already being solved.", &st.Batches},
		{"popserved_batched_requests_total", "Requests that started or joined a solve flight.", &st.BatchedRequests},
		{"popserved_coalesced_total", "Requests that joined another request's solve flight.", &st.Coalesced},
		{"popserved_solves_total", "Kernel solves run.", &st.Solves},
		{"popserved_solve_errors_total", "Kernel solves that failed.", &st.SolveErrors},
		{"popserved_abandoned_total", "Waiters whose context ended before their flight delivered.", &st.Abandoned},
		{"popserved_session_solves_total", "Kernel solves run on behalf of delta sessions.", &st.SessionSolves},
		{"popserved_session_warm_total", "Session solves answered by the incremental warm-start path.", &st.SessionWarm},
		{`popserved_uploads_total{format="text"}`, "Successful instance uploads by wire format.", &st.UploadsText},
		{`popserved_uploads_total{format="binary"}`, "Successful instance uploads by wire format.", &st.UploadsBinary},
		{"popserved_store_loaded_total", "Instances restored from the on-disk store at boot.", &st.StoreLoaded},
	} {
		r.RegisterCounter(c.name, c.help, c.c)
	}

	m.reqSolve = r.Histogram(`popserved_request_duration_seconds{route="solve"}`,
		"Server-side duration of solve requests, cache hits included.", 1e-9)
	m.reqSession = r.Histogram(`popserved_request_duration_seconds{route="session_solve"}`,
		"Server-side duration of solve requests, cache hits included.", 1e-9)
	m.solve = r.Histogram("popserved_solve_duration_seconds",
		"Duration of individual kernel solves.", 1e-9)
	m.flush = r.Histogram("popserved_batch_flush_duration_seconds",
		"Time from a solve flight's start to its result: solve-slot wait plus solve.", 1e-9)

	for _, md := range popmatch.Modes {
		m.mode[md] = r.Counter(fmt.Sprintf("popserved_mode_solves_total{mode=%q}", md.String()),
			"Kernel solves by solve mode.")
	}

	r.Gauge("popserved_max_batch", "Most requests one solve flight served.", st.MaxBatch.Load)
	r.Gauge("popserved_instances", "Registered instances.", func() int64 { return int64(s.registry.Len()) })
	r.Gauge("popserved_sessions", "Live delta sessions.", func() int64 { return int64(s.sessions.len()) })
	r.Gauge("popserved_cache_entries", "Result-cache entries.", func() int64 { return int64(s.cache.Len()) })
	r.Gauge("popserved_uptime_seconds", "Seconds since the server started.", s.uptimeSeconds)
	return m
}

// modeSolve counts n kernel solves against mode's series. Unknown modes
// (rejected by the engine before solving anyway) count nowhere.
func (m *serverMetrics) modeSolve(mode popmatch.Mode, n int64) {
	if c, ok := m.mode[mode]; ok {
		c.Add(n)
	}
}

// WriteMetrics writes every server metric in Prometheus text exposition
// format: the Stats counter block, the request/solve/flight latency
// histograms, per-mode solve counters and the table gauges. The HTTP surface
// serves this as GET /metrics.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.metrics.reg.WritePrometheus(w)
}

// SolveTraced is Solve for diagnosis: it runs one dedicated kernel solve of
// the registered instance and fills tr with the per-phase breakdown. Traced
// requests bypass the result cache in both directions and never share a
// flight — a cached or shared answer has no solve of its own to trace — so
// the reported trace always reflects a real solve of exactly this request.
func (s *Server) SolveTraced(ctx context.Context, id string, mode popmatch.Mode, tr *popmatch.SolveTrace) (*Outcome, error) {
	snap, ok := s.registry.Get(id)
	if !ok {
		return nil, ErrUnknownInstance
	}
	start := time.Now()
	defer func() { s.metrics.reqSolve.Observe(time.Since(start).Nanoseconds()) }()
	s.stats.Requests.Add(1)
	// The cache was never consulted, but counting the request as a miss
	// keeps the requests == hits + misses invariant of the counter block.
	s.stats.CacheMisses.Add(1)
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	return s.kernelSolve(ctx, snap, popmatch.Request{Mode: mode, Trace: tr})
}
