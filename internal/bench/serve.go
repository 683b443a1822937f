package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/onesided"
	"repro/internal/serve"
)

// DefaultServeN is the applicant count of the serve scenario's instances:
// large enough that a solve is real work (milliseconds), small enough that
// a closed-loop sweep of hundreds of requests finishes promptly. CI smoke
// runs pass a reduced n via popbench -n.
const DefaultServeN = 2000

// ServeRecord is one closed-loop load measurement of the popserved serving
// stack (BENCH_serve.json). Latency percentiles are measured client-side
// over real HTTP; the counter block is the server's own stats snapshot, so
// a record shows both what the clients observed (throughput, p50/p99) and
// what the serving layer did to absorb it (shared solves, caching).
type ServeRecord struct {
	// Name identifies the workload: serve_batched (cache off — every
	// request reaches a solve flight) or serve_cached (LRU on — repeats are
	// answered without the kernel).
	Name string `json:"name"`
	// N is the per-instance applicant count, Instances the number of
	// distinct registered instances, Clients the closed-loop client count
	// and Requests the total successful solve requests issued.
	N         int   `json:"n"`
	Instances int   `json:"instances"`
	Clients   int   `json:"clients"`
	Requests  int64 `json:"requests"`
	// Wall-clock of the loaded phase and client-observed latency.
	DurationNs int64   `json:"duration_ns"`
	QPS        float64 `json:"qps"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
	// Server-side percentiles from the popserved request-duration histogram
	// (the full Server.Solve duration, cache hits included), in milliseconds
	// beside the client-observed nanosecond fields. The gap between the two
	// views is HTTP/queueing overhead; ServerDisagree flags the run when BOTH
	// quantiles gap by more than 20% relative and 1ms absolute — recorded,
	// not fatal, since the server histogram's log2 buckets make its
	// quantiles coarse and the client view legitimately includes transport.
	// A quantile whose server-side value sits below TransportFloorNs (the
	// ~50µs per-request HTTP floor) never votes disagree: when the server
	// answers faster than the transport itself costs, the client-server gap
	// is transport by construction (typical of the cached workload, where a
	// hit is a map lookup) and flagging it would be noise, not signal.
	ServerP50Ms      float64 `json:"server_p50_ms"`
	ServerP99Ms      float64 `json:"server_p99_ms"`
	ServerDisagree   bool    `json:"server_disagree,omitempty"`
	TransportFloorNs int64   `json:"transport_floor_ns"`
	// Server-side counters over the loaded phase (see serve.Stats).
	Solves          int64 `json:"solves"`
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
	MaxBatch        int64 `json:"max_batch"`
	Coalesced       int64 `json:"coalesced"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
}

// serveWorkload drives one closed-loop run: clients goroutines issuing
// requestsPerClient solve requests round-robin over the registered ids
// against a fresh server with the given cache setting.
func serveWorkload(name string, seed int64, n, cacheSize int) (ServeRecord, error) {
	const (
		instances         = 8
		clients           = 16
		requestsPerClient = 40
	)
	srv := serve.New(serve.Config{CacheSize: cacheSize})
	defer srv.Close()
	ts := httptest.NewServer(serve.NewHandler(srv))
	defer ts.Close()

	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, instances)
	for i := range ids {
		snap, _, err := srv.Upload(onesided.Solvable(rng, n, n/4+1, 4))
		if err != nil {
			return ServeRecord{}, err
		}
		ids[i] = snap.ID
	}

	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: clients}
	solve := func(id string) (time.Duration, error) {
		body := fmt.Sprintf(`{"instance": %q, "mode": "popular"}`, id)
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("solve %s: status %d", id, resp.StatusCode)
		}
		return time.Since(start), nil
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		firstErr  error
	)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requestsPerClient; i++ {
				d, err := solve(ids[(c+i)%len(ids)])
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				latencies = append(latencies, d)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return ServeRecord{}, firstErr
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) int64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return int64(latencies[idx])
	}
	lat := srv.SolveLatency()
	serverP50 := lat.Quantile(0.50) // ns
	serverP99 := lat.Quantile(0.99)
	// transportFloorNs is the per-request HTTP overhead floor: loopback
	// connection handling, header parsing and JSON encode/decode cost on the
	// order of tens of microseconds, so a server-side quantile below 50µs is
	// guaranteed to gap the client view by mostly-transport. See the
	// ServeRecord field comment for the suppression rule.
	const transportFloorNs = 50_000
	disagree := func(clientNs, serverNs float64) bool {
		if serverNs < transportFloorNs {
			return false
		}
		diff := math.Abs(clientNs - serverNs)
		return diff > 1e6 && diff > 0.20*math.Max(clientNs, serverNs)
	}

	st := srv.Stats()
	return ServeRecord{
		Name:        name,
		N:           n,
		Instances:   instances,
		Clients:     clients,
		Requests:    int64(len(latencies)),
		DurationNs:  int64(elapsed),
		QPS:         float64(len(latencies)) / elapsed.Seconds(),
		P50Ns:       pct(0.50),
		P99Ns:       pct(0.99),
		ServerP50Ms: serverP50 / 1e6,
		ServerP99Ms: serverP99 / 1e6,
		ServerDisagree: disagree(float64(pct(0.50)), serverP50) &&
			disagree(float64(pct(0.99)), serverP99),
		TransportFloorNs: transportFloorNs,
		Solves:           st["solves"],
		Batches:          st["batches"],
		BatchedRequests:  st["batched_requests"],
		MaxBatch:         st["max_batch"],
		Coalesced:        st["coalesced"],
		CacheHits:        st["cache_hits"],
		CacheMisses:      st["cache_misses"],
	}, nil
}

// ServeBench measures the serving subsystem end to end over real HTTP with
// closed-loop clients: once with the result cache disabled (every request
// reaches a solve flight — the shared-solve numbers are the point) and once
// with it enabled (repeat queries never reach the kernel —
// the throughput gap against the first record prices the cache). n <= 0
// selects DefaultServeN.
func ServeBench(seed int64, n int) ([]ServeRecord, error) {
	if n <= 0 {
		n = DefaultServeN
	}
	batched, err := serveWorkload("serve_batched", seed, n, -1)
	if err != nil {
		return nil, err
	}
	cached, err := serveWorkload("serve_cached", seed, n, 1024)
	if err != nil {
		return nil, err
	}
	return []ServeRecord{batched, cached}, nil
}

// WriteServeJSON runs ServeBench and writes the records as indented JSON
// (the BENCH_serve.json baseline). n <= 0 selects DefaultServeN.
func WriteServeJSON(w io.Writer, seed int64, n int) error {
	records, err := ServeBench(seed, n)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
