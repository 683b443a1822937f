package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/onesided"
	"repro/internal/serve"
	"repro/internal/shard"
)

// DefaultShardN is the applicant count of the shard scenario's instances:
// the same order as the serve scenario so the two baselines are comparable —
// a solve is real kernel work, not a cache hit.
const DefaultShardN = 2000

// ShardRecord is one closed-loop load measurement of the sharded serving
// tier (BENCH_shard.json): a poprouter over Shards shared-nothing popserved
// shards, all in-process behind httptest listeners so the record measures
// the routing/proxy stack, not container networking. One record per shard
// count; SpeedupVs1 against the first (single-shard) record prices the
// horizontal scaling. NumCPU records the machine honestly — on a single-CPU
// host the shards time-slice one core and QPS cannot scale, so the scaling
// gate is IdenticalToDirect (router-proxied solves bit-identical to solves
// issued directly against the owning shard), not a speedup floor.
type ShardRecord struct {
	Name        string `json:"name"`
	Shards      int    `json:"shards"`
	Replication int    `json:"replication"`
	// N is the per-instance applicant count, Instances the distinct
	// instances uploaded through the router, Clients the closed-loop client
	// count and Requests the total successful solve requests issued.
	N         int   `json:"n"`
	Instances int   `json:"instances"`
	Clients   int   `json:"clients"`
	Requests  int64 `json:"requests"`
	// Wall-clock of the loaded phase and client-observed latency through
	// the router.
	DurationNs int64   `json:"duration_ns"`
	QPS        float64 `json:"qps"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
	// PerShardRequests is the router's per-shard proxy counter keyed by
	// shard index ("shard0".."shardK-1" in ring order) — the request
	// distribution the rendezvous placement produced under this workload.
	// Shed counts requests refused 429 at the router's in-flight bound
	// (zero here: the bound is left at its default, far above the client
	// count).
	PerShardRequests map[string]int64 `json:"per_shard_requests"`
	Shed             int64            `json:"shed"`
	NumCPU           int              `json:"num_cpu"`
	// IdenticalToDirect reports the determinism gate: every instance solved
	// through the router returned the same matching, bit for bit, as a
	// solve issued directly against its owning shard.
	IdenticalToDirect bool    `json:"identical_to_direct"`
	SpeedupVs1        float64 `json:"speedup_vs_1"`
}

// shardWorkload drives one closed-loop run against a fresh k-shard fleet.
func shardWorkload(seed int64, n, shards int) (ShardRecord, error) {
	const (
		instances         = 8
		clients           = 16
		requestsPerClient = 40
	)

	servers := make([]*serve.Server, shards)
	urls := make([]string, shards)
	for i := range servers {
		servers[i] = serve.New(serve.Config{})
		ts := httptest.NewServer(serve.NewHandler(servers[i]))
		defer ts.Close()
		defer servers[i].Close()
		urls[i] = ts.URL
	}
	rt, err := shard.NewRouter(shard.Config{Shards: urls, HealthInterval: -1})
	if err != nil {
		return ShardRecord{}, err
	}
	defer rt.Close()
	router := httptest.NewServer(shard.NewHandler(rt))
	defer router.Close()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	post := func(base, path, contentType string, body []byte) ([]byte, error) {
		resp, err := client.Post(base+path, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("%s%s: status %d: %s", base, path, resp.StatusCode, raw)
		}
		return raw, nil
	}

	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, instances)
	for i := range ids {
		var buf bytes.Buffer
		if err := onesided.Write(&buf, onesided.Solvable(rng, n, n/4+1, 4)); err != nil {
			return ShardRecord{}, err
		}
		raw, err := post(router.URL, "/v1/instances", "text/plain", buf.Bytes())
		if err != nil {
			return ShardRecord{}, err
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &info); err != nil {
			return ShardRecord{}, err
		}
		ids[i] = info.ID
	}

	// Determinism gate: a solve through the router must return the exact
	// matching a direct solve against the owning shard returns. This also
	// warms every shard's result cache so the loaded phase below measures
	// the proxy stack at full request rate on all shard counts alike.
	identical := true
	for _, id := range ids {
		body := []byte(fmt.Sprintf(`{"instance": %q, "mode": "popular"}`, id))
		viaRouter, err := post(router.URL, "/v1/solve", "application/json", body)
		if err != nil {
			return ShardRecord{}, err
		}
		direct, err := post(rt.Owner(id), "/v1/solve", "application/json", body)
		if err != nil {
			return ShardRecord{}, err
		}
		var a, b struct {
			PostOf []int32 `json:"post_of"`
			Size   int     `json:"size"`
		}
		if err := json.Unmarshal(viaRouter, &a); err != nil {
			return ShardRecord{}, err
		}
		if err := json.Unmarshal(direct, &b); err != nil {
			return ShardRecord{}, err
		}
		if a.Size != b.Size || len(a.PostOf) != len(b.PostOf) {
			identical = false
		} else {
			for i := range a.PostOf {
				if a.PostOf[i] != b.PostOf[i] {
					identical = false
					break
				}
			}
		}
	}

	before := rt.Snapshot()
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
				body := []byte(fmt.Sprintf(`{"instance": %q, "mode": "popular"}`, ids[(c+i)%len(ids)]))
				reqStart := time.Now()
				_, err := post(router.URL, "/v1/solve", "application/json", body)
				d := time.Since(reqStart)
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
		return ShardRecord{}, firstErr
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) int64 {
		if len(latencies) == 0 {
			return 0
		}
		return int64(latencies[int(p*float64(len(latencies)-1))])
	}

	// Per-shard distribution over the loaded phase only, keyed by ring
	// index so records are stable across runs (httptest ports are not).
	after := rt.Snapshot()
	perShard := make(map[string]int64, shards)
	for i, u := range urls {
		base, _, err := shard.NormalizeShardURL(u)
		if err != nil {
			return ShardRecord{}, err
		}
		perShard[fmt.Sprintf("shard%d", i)] = after.PerShardRequests[base] - before.PerShardRequests[base]
	}

	return ShardRecord{
		Name:              fmt.Sprintf("shard_%d", shards),
		Shards:            shards,
		Replication:       1,
		N:                 n,
		Instances:         instances,
		Clients:           clients,
		Requests:          int64(len(latencies)),
		DurationNs:        int64(elapsed),
		QPS:               float64(len(latencies)) / elapsed.Seconds(),
		P50Ns:             pct(0.50),
		P99Ns:             pct(0.99),
		PerShardRequests:  perShard,
		Shed:              after.Shed - before.Shed,
		NumCPU:            runtime.NumCPU(),
		IdenticalToDirect: identical,
	}, nil
}

// ShardBench sweeps the shard counts at fixed n, filling SpeedupVs1 against
// the first count in the sweep (conventionally 1). n <= 0 selects
// DefaultShardN.
func ShardBench(seed int64, n int, shardCounts []int) ([]ShardRecord, error) {
	if n <= 0 {
		n = DefaultShardN
	}
	records := make([]ShardRecord, 0, len(shardCounts))
	for _, k := range shardCounts {
		rec, err := shardWorkload(seed, n, k)
		if err != nil {
			return nil, err
		}
		if len(records) == 0 {
			rec.SpeedupVs1 = 1
		} else {
			rec.SpeedupVs1 = rec.QPS / records[0].QPS
		}
		records = append(records, rec)
	}
	return records, nil
}

// WriteShardJSON runs ShardBench and writes the records as indented JSON
// (the BENCH_shard.json baseline).
func WriteShardJSON(w io.Writer, seed int64, n int, shardCounts []int) error {
	records, err := ShardBench(seed, n, shardCounts)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
