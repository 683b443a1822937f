package serve

import "repro/internal/obs"

// Stats is the server's counter block: cheap atomic counters incremented on
// the request path. The counters are obs.Counter values so the same storage
// backs both the flat JSON snapshot of /v1/stats and the Prometheus series
// of /metrics (see metrics.go) — one increment, two exposition formats.
// Latency histograms live beside them in serverMetrics; the bench harness
// reads both the client- and the server-side percentiles.
type Stats struct {
	// Requests counts every solve request that named a registered instance
	// — including ones admission control later refused; Rejected counts
	// those refusals (a subset of Requests).
	Requests obs.Counter
	Rejected obs.Counter
	// CacheHits/CacheMisses split Requests by result-cache outcome; the
	// cache is consulted before admission, so a rejected request still
	// counts as a miss.
	CacheHits   obs.Counter
	CacheMisses obs.Counter
	// Batches counts solve flights started; BatchedRequests the requests
	// that started or joined one (so BatchedRequests/Batches is the mean
	// number of requests a flight served); MaxBatch the most requests one
	// flight served; Coalesced the requests that joined a flight another
	// request started. Batches + Coalesced == BatchedRequests.
	Batches         obs.Counter
	BatchedRequests obs.Counter
	MaxBatch        obs.Counter
	Coalesced       obs.Counter
	// Solves counts kernel solves actually run; SolveErrors the ones that
	// failed. A cache hit or a coalesced request does not move Solves — that
	// gap is the measure of work the serving layer absorbed.
	Solves      obs.Counter
	SolveErrors obs.Counter
	// Abandoned counts waiters that gave up (context ended) before their
	// flight delivered; the solve keeps running while another request still
	// waits for it.
	Abandoned obs.Counter
	// SessionSolves counts kernel solves run on behalf of delta sessions
	// (these never share a flight); SessionWarm the subset answered by the
	// incremental warm-start path rather than a full solve.
	SessionSolves obs.Counter
	SessionWarm   obs.Counter
	// UploadsText/UploadsBinary split successful HTTP uploads by wire
	// format; StoreLoaded counts instances restored from the on-disk store
	// at boot. After a restart against a populated store, StoreLoaded is the
	// registry size and both upload counters are zero — the assertion that
	// no instance was re-parsed.
	UploadsText   obs.Counter
	UploadsBinary obs.Counter
	StoreLoaded   obs.Counter
}

// snapshotInto writes the counters into m, reading each exactly once (one
// atomic load per counter, no re-reads), so a snapshot is as consistent as a
// lock-free counter block can be: every value is a real point-in-time read.
// The key set is the wire contract of /v1/stats — TestStatsSnapshotKeys pins
// it.
func (st *Stats) snapshotInto(m map[string]int64) {
	m["requests"] = st.Requests.Load()
	m["rejected"] = st.Rejected.Load()
	m["cache_hits"] = st.CacheHits.Load()
	m["cache_misses"] = st.CacheMisses.Load()
	m["batches"] = st.Batches.Load()
	m["batched_requests"] = st.BatchedRequests.Load()
	m["max_batch"] = st.MaxBatch.Load()
	m["coalesced"] = st.Coalesced.Load()
	m["solves"] = st.Solves.Load()
	m["solve_errors"] = st.SolveErrors.Load()
	m["abandoned"] = st.Abandoned.Load()
	m["session_solves"] = st.SessionSolves.Load()
	m["session_warm"] = st.SessionWarm.Load()
	m["uploads_text"] = st.UploadsText.Load()
	m["uploads_binary"] = st.UploadsBinary.Load()
	m["store_loaded"] = st.StoreLoaded.Load()
}
