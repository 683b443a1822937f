package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/onesided"
	"repro/internal/serve"
)

// fleet is a test harness: k real popserved shards (serve.Server behind
// httptest) and a Router over them.
type fleet struct {
	t       *testing.T
	servers []*serve.Server
	urls    []string
	router  *Router
	rts     *httptest.Server
	c       *http.Client
}

func newFleet(t *testing.T, k int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{t: t, c: &http.Client{}}
	for i := 0; i < k; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(serve.NewHandler(s))
		t.Cleanup(func() { ts.Close(); s.Close() })
		f.servers = append(f.servers, s)
		f.urls = append(f.urls, ts.URL)
	}
	cfg.Shards = f.urls
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.rts = httptest.NewServer(NewHandler(rt))
	t.Cleanup(func() { f.rts.Close(); rt.Close() })
	return f
}

// serverAt returns the serve.Server behind the shard base URL.
func (f *fleet) serverAt(url string) *serve.Server {
	for i, u := range f.urls {
		if u == url {
			return f.servers[i]
		}
	}
	f.t.Fatalf("unknown shard url %s", url)
	return nil
}

func (f *fleet) do(method, path, contentType string, body []byte, out any) (int, http.Header) {
	f.t.Helper()
	return doJSON(f.t, f.c, f.rts.URL, method, path, contentType, body, out)
}

func doJSON(t *testing.T, c *http.Client, base, method, path, contentType string, body []byte, out any) (int, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: undecodable response %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func textBody(t *testing.T, ins *onesided.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := onesided.Write(&buf, ins); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type instanceInfo struct {
	ID         string `json:"id"`
	Applicants int    `json:"applicants"`
	Created    bool   `json:"created"`
}

type solveResponse struct {
	Instance string  `json:"instance"`
	Cached   bool    `json:"cached"`
	Exists   bool    `json:"exists"`
	Size     int     `json:"size"`
	PostOf   []int32 `json:"post_of"`
}

func (f *fleet) upload(ins *onesided.Instance) instanceInfo {
	f.t.Helper()
	var info instanceInfo
	st, _ := f.do("POST", "/v1/instances", "text/plain", textBody(f.t, ins), &info)
	if st != http.StatusCreated && st != http.StatusOK {
		f.t.Fatalf("upload via router: status %d", st)
	}
	return info
}

func solveBody(id string) []byte {
	return []byte(fmt.Sprintf(`{"instance": %q, "mode": "popular"}`, id))
}

// TestRouterEndToEnd drives the full instance API through a 2-shard fleet:
// uploads route by fingerprint, solves through the router are bit-identical
// to solves issued directly against the owning shard, listings merge, and
// only the owning shard ever holds an instance (shared-nothing, R=1).
func TestRouterEndToEnd(t *testing.T) {
	f := newFleet(t, 2, Config{HealthInterval: -1})
	rng := rand.New(rand.NewSource(1))

	owners := make(map[string]string)
	for i := 0; i < 8; i++ {
		ins := onesided.Solvable(rng, 50, 15, 4)
		info := f.upload(ins)
		owners[info.ID] = owner(f.router.ring, info.ID)

		// Shared-nothing placement: the owner holds it, the other shard not.
		for _, u := range f.urls {
			_, held := f.serverAt(u).Instance(info.ID)
			if want := u == owners[info.ID]; held != want {
				t.Fatalf("instance %s on shard %s: held=%v want %v", info.ID, u, held, want)
			}
		}

		// Idempotent re-upload through the router.
		var again instanceInfo
		if st, _ := f.do("POST", "/v1/instances", "text/plain", textBody(t, ins), &again); st != http.StatusOK || again.ID != info.ID {
			t.Fatalf("re-upload: status %d id %s (want 200 %s)", st, again.ID, info.ID)
		}
	}
	if len(owners) != 8 {
		t.Fatalf("expected 8 distinct instances, got %d", len(owners))
	}

	// Router listing merges both shards into the full set.
	var list []instanceInfo
	if st, _ := f.do("GET", "/v1/instances", "", nil, &list); st != http.StatusOK || len(list) != 8 {
		t.Fatalf("merged list: status %d, %d entries (want 8)", st, len(list))
	}

	// Solve via router == solve direct against the owning shard, bit for bit.
	for id, owner := range owners {
		var viaRouter, direct solveResponse
		if st, _ := f.do("POST", "/v1/solve", "application/json", solveBody(id), &viaRouter); st != http.StatusOK {
			t.Fatalf("solve via router: status %d", st)
		}
		if st, _ := doJSON(t, f.c, owner, "POST", "/v1/solve", "application/json", solveBody(id), &direct); st != http.StatusOK {
			t.Fatalf("solve direct: status %d", st)
		}
		if viaRouter.Exists != direct.Exists || viaRouter.Size != direct.Size ||
			!slicesEqual(viaRouter.PostOf, direct.PostOf) {
			t.Fatalf("router solve differs from direct solve of %s:\n router %+v\n direct %+v", id, viaRouter, direct)
		}
	}

	// Verify proxies by the same key.
	var vr solveResponse
	var someID string
	for id := range owners {
		someID = id
		break
	}
	f.do("POST", "/v1/solve", "application/json", solveBody(someID), &vr)
	vbody, _ := json.Marshal(map[string]any{"instance": someID, "post_of": vr.PostOf})
	var verdict struct {
		Popular bool `json:"popular"`
	}
	if st, _ := f.do("POST", "/v1/verify", "application/json", vbody, &verdict); st != http.StatusOK || !verdict.Popular {
		t.Fatalf("verify via router: status %d popular=%v", st, verdict.Popular)
	}

	// Aggregated stats sum the shard counters (8 distinct instances
	// registered in total across the fleet) and carry the router keys.
	var stats map[string]int64
	if st, _ := f.do("GET", "/v1/stats", "", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats via router: %d", st)
	}
	if stats["instances"] != 8 || stats["router_shards"] != 2 || stats["router_shards_healthy"] != 2 {
		t.Fatalf("aggregated stats wrong: %v", stats)
	}

	// Evict via router removes from the owning shard and the listing.
	if st, _ := f.do("DELETE", "/v1/instances/"+someID, "", nil, nil); st != http.StatusOK {
		t.Fatalf("evict via router: %d", st)
	}
	if _, held := f.serverAt(owners[someID]).Instance(someID); held {
		t.Fatal("evicted instance still on owning shard")
	}
	if st, _ := f.do("GET", "/v1/instances/"+someID, "", nil, nil); st != http.StatusNotFound {
		t.Fatalf("get of evicted instance: %d", st)
	}
}

func slicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterForwardsContentNegotiation pins that the router forwards Accept
// and Content-Type verbatim: a binary upload and a binary download work
// through the router exactly as against a shard.
func TestRouterForwardsContentNegotiation(t *testing.T) {
	f := newFleet(t, 2, Config{HealthInterval: -1})
	ins := onesided.Solvable(rand.New(rand.NewSource(2)), 40, 12, 4)

	var pmb bytes.Buffer
	if err := onesided.WriteBinary(&pmb, ins); err != nil {
		t.Fatal(err)
	}
	var info instanceInfo
	if st, _ := f.do("POST", "/v1/instances", serve.ContentTypeBinary, pmb.Bytes(), &info); st != http.StatusCreated {
		t.Fatalf("binary upload via router: %d", st)
	}
	if info.ID != ins.Fingerprint() {
		t.Fatalf("binary upload id %s != fingerprint %s", info.ID, ins.Fingerprint())
	}

	req, _ := http.NewRequest("GET", f.rts.URL+"/v1/instances/"+info.ID, nil)
	req.Header.Set("Accept", serve.ContentTypeBinary)
	resp, err := f.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != serve.ContentTypeBinary {
		t.Fatalf("binary download via router: status %d Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	back, err := onesided.DecodeBinary(raw)
	if err != nil {
		t.Fatalf("binary download via router does not decode: %v", err)
	}
	if back.Fingerprint() != info.ID {
		t.Fatalf("downloaded fingerprint %s != %s", back.Fingerprint(), info.ID)
	}

	// An unparseable upload is refused by the router itself with 400.
	var e struct {
		Error string `json:"error"`
	}
	if st, _ := f.do("POST", "/v1/instances", "text/plain", []byte("not an instance"), &e); st != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d (%+v)", st, e)
	}
}

// TestRouterRequestID pins the cross-process id: a caller-supplied
// X-Request-Id is echoed by the router AND reaches the shard (the shard's
// error body repeats it), and a router-minted id appears when absent.
func TestRouterRequestID(t *testing.T) {
	f := newFleet(t, 2, Config{HealthInterval: -1})

	req, _ := http.NewRequest("POST", f.rts.URL+"/v1/solve", strings.NewReader(`{"instance": "absent", "mode": "popular"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-me-123")
	resp, err := f.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-123" {
		t.Fatalf("router did not echo X-Request-Id: %q", got)
	}
	if len(resp.Header.Values("X-Request-Id")) != 1 {
		t.Fatalf("duplicate X-Request-Id headers: %v", resp.Header.Values("X-Request-Id"))
	}
	// The 404 error body comes from the shard — it carries the same id,
	// proving the header crossed the process boundary and back.
	var e struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || e.RequestID != "trace-me-123" {
		t.Fatalf("shard error body lost the request id: %q (%v)", raw, err)
	}

	// Without a caller id the router mints one.
	st, hdr := f.do("GET", "/v1/instances", "", nil, nil)
	if st != http.StatusOK || hdr.Get("X-Request-Id") == "" {
		t.Fatalf("minted id missing: status %d, header %q", st, hdr.Get("X-Request-Id"))
	}
}

// TestRouterSessions drives the session lifecycle through the router (the
// session is pinned to one shard) and pins restart discovery: a second
// router with an empty binding table finds the session by probing.
func TestRouterSessions(t *testing.T) {
	f := newFleet(t, 2, Config{HealthInterval: -1})
	ins := onesided.Solvable(rand.New(rand.NewSource(3)), 60, 20, 4)
	info := f.upload(ins)

	var sess struct {
		ID string `json:"id"`
	}
	if st, _ := f.do("POST", "/v1/sessions", "application/json",
		[]byte(fmt.Sprintf(`{"instance": %q}`, info.ID)), &sess); st != http.StatusCreated || sess.ID == "" {
		t.Fatalf("create session via router: %d %+v", st, sess)
	}

	var first solveResponse
	if st, _ := f.do("POST", "/v1/sessions/"+sess.ID+"/solve", "application/json",
		[]byte(`{"mode": "popular"}`), &first); st != http.StatusOK || !first.Exists {
		t.Fatalf("session solve via router: %d %+v", st, first)
	}

	mut := []byte(`{"mutations": [{"op": "set_preferences", "applicant": 2, "posts": [2, 60, 61]}]}`)
	var mresp struct {
		Session struct {
			Epoch uint64 `json:"epoch"`
		} `json:"session"`
	}
	if st, _ := f.do("POST", "/v1/sessions/"+sess.ID+"/mutations", "application/json", mut, &mresp); st != http.StatusOK || mresp.Session.Epoch == 0 {
		t.Fatalf("session mutation via router: %d %+v", st, mresp)
	}
	var warm struct {
		Exists bool `json:"exists"`
		Warm   bool `json:"warm"`
	}
	if st, _ := f.do("POST", "/v1/sessions/"+sess.ID+"/solve", "application/json",
		[]byte(`{"mode": "popular"}`), &warm); st != http.StatusOK || !warm.Exists || !warm.Warm {
		t.Fatalf("warm session solve via router: %d %+v", st, warm)
	}

	// Session listing merges shards; this session appears exactly once.
	var sessions []struct {
		ID string `json:"id"`
	}
	if st, _ := f.do("GET", "/v1/sessions", "", nil, &sessions); st != http.StatusOK || len(sessions) != 1 || sessions[0].ID != sess.ID {
		t.Fatalf("session list via router: %d %+v", st, sessions)
	}

	// A freshly built router (restart: binding table empty) still routes to
	// the session by probing the fleet.
	rt2, err := NewRouter(Config{Shards: f.urls, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	ts2 := httptest.NewServer(NewHandler(rt2))
	defer ts2.Close()
	var found struct {
		ID string `json:"id"`
	}
	if st, _ := doJSON(t, f.c, ts2.URL, "GET", "/v1/sessions/"+sess.ID, "", nil, &found); st != http.StatusOK || found.ID != sess.ID {
		t.Fatalf("session discovery after router restart: %d %+v", st, found)
	}

	if st, _ := f.do("DELETE", "/v1/sessions/"+sess.ID, "", nil, nil); st != http.StatusOK {
		t.Fatalf("delete session via router: %d", st)
	}
	if st, _ := f.do("GET", "/v1/sessions/"+sess.ID, "", nil, nil); st != http.StatusNotFound {
		t.Fatalf("deleted session still resolvable: %d", st)
	}
}

// TestRouterReplication pins R=2: an upload lands on both replicas, reads
// are served with one replica down, and eviction clears every replica.
func TestRouterReplication(t *testing.T) {
	f := newFleet(t, 2, Config{Replication: 2, HealthInterval: -1})
	ins := onesided.Solvable(rand.New(rand.NewSource(4)), 50, 15, 4)
	info := f.upload(ins)

	for _, u := range f.urls {
		if _, held := f.serverAt(u).Instance(info.ID); !held {
			t.Fatalf("replica %s does not hold %s", u, info.ID)
		}
	}

	// Merged listing dedupes the replicated instance to one entry.
	var list []instanceInfo
	if st, _ := f.do("GET", "/v1/instances", "", nil, &list); st != http.StatusOK || len(list) != 1 {
		t.Fatalf("replicated listing: status %d, %d entries (want 1)", st, len(list))
	}

	// Reads keep working when the preferred replica is marked down.
	f.router.states[f.urls[0]].healthy.Store(false)
	var solved solveResponse
	if st, _ := f.do("POST", "/v1/solve", "application/json", solveBody(info.ID), &solved); st != http.StatusOK || !solved.Exists {
		t.Fatalf("solve with one replica down: %d %+v", st, solved)
	}
	f.router.states[f.urls[0]].healthy.Store(true)

	if st, _ := f.do("DELETE", "/v1/instances/"+info.ID, "", nil, nil); st != http.StatusOK {
		t.Fatalf("evict replicated instance: %d", st)
	}
	for _, u := range f.urls {
		if _, held := f.serverAt(u).Instance(info.ID); held {
			t.Fatalf("replica %s still holds evicted %s", u, info.ID)
		}
	}
}

// TestRouterRetryOnConnectionFailure pins failover: with R=2 and the
// preferred replica's listener torn down, a request replays against the
// surviving replica, and the dead shard is marked unhealthy.
func TestRouterRetryOnConnectionFailure(t *testing.T) {
	live := serve.New(serve.Config{})
	liveTS := httptest.NewServer(serve.NewHandler(live))
	defer func() { liveTS.Close(); live.Close() }()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore: every dial fails

	rt, err := NewRouter(Config{Shards: []string{deadURL, liveTS.URL}, Replication: 2, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(NewHandler(rt))
	defer ts.Close()

	ins := onesided.Solvable(rand.New(rand.NewSource(5)), 40, 12, 4)
	c := &http.Client{}

	// Upload via the router: the dead replica write fails best-effort, the
	// live one succeeds regardless of which is the ring owner.
	var info instanceInfo
	if st, _ := doJSON(t, c, ts.URL, "POST", "/v1/instances", "text/plain", textBody(t, ins), &info); st != http.StatusCreated {
		t.Fatalf("upload with dead replica: %d", st)
	}
	if _, held := live.Instance(info.ID); !held {
		t.Fatal("live shard does not hold the upload")
	}

	// Solve must succeed by retrying onto the live replica even when the
	// ring prefers the dead one, and the failure marks the dead shard down.
	var solved solveResponse
	if st, _ := doJSON(t, c, ts.URL, "POST", "/v1/solve", "application/json", solveBody(info.ID), &solved); st != http.StatusOK || !solved.Exists {
		t.Fatalf("solve with dead replica: %d %+v", st, solved)
	}
	snap := rt.Snapshot()
	if snap.Healthy[normalizeOrDie(t, deadURL)] {
		t.Fatal("dead shard still marked healthy after connection failures")
	}
	if !snap.Healthy[normalizeOrDie(t, liveTS.URL)] {
		t.Fatal("live shard marked unhealthy")
	}
}

func normalizeOrDie(t *testing.T, raw string) string {
	t.Helper()
	base, _, err := NormalizeShardURL(raw)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestRouterAllShardsDown pins the terminal failure: a 1-shard fleet whose
// shard is unreachable yields 502, not a hang or a panic.
func TestRouterAllShardsDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	rt, err := NewRouter(Config{Shards: []string{deadURL}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(NewHandler(rt))
	defer ts.Close()
	st, _ := doJSON(t, &http.Client{}, ts.URL, "GET", "/v1/instances/deadbeef", "", nil, nil)
	if st != http.StatusBadGateway {
		t.Fatalf("all-shards-down read: %d, want 502", st)
	}
}

// TestRouterLoadShed pins the shedding contract deterministically: a shard
// handler blocked on a channel holds the router's in-flight count at the
// MaxInflight=1 bound, so a concurrent request is refused with 429 and a
// Retry-After header, and the shed counter moves.
func TestRouterLoadShed(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		started <- struct{}{}
		<-release
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id": "x"}`))
	}))
	defer slow.Close()
	defer close(release)

	rt, err := NewRouter(Config{Shards: []string{slow.URL}, MaxInflight: 1, RetryAfter: 3 * time.Second, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(NewHandler(rt))
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/instances/slowkey")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // the slow shard now holds the only in-flight slot

	resp, err := http.Get(ts.URL + "/v1/instances/anotherkey")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated router returned %d, want 429 (body %s)", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if shed := rt.Snapshot().Shed; shed < 1 {
		t.Fatalf("shed counter %d, want >= 1", shed)
	}
	release <- struct{}{}
	wg.Wait()
}

// TestRouterMetricsExposition pins the /metrics surface: per-shard labeled
// series, the fleet counters and the proxy histogram are all present.
func TestRouterMetricsExposition(t *testing.T) {
	f := newFleet(t, 2, Config{HealthInterval: -1})
	info := f.upload(onesided.Solvable(rand.New(rand.NewSource(6)), 40, 12, 4))
	var out solveResponse
	f.do("POST", "/v1/solve", "application/json", solveBody(info.ID), &out)

	req, _ := http.NewRequest("GET", f.rts.URL+"/metrics", nil)
	resp, err := f.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"poprouter_requests_total ",
		"poprouter_shed_total ",
		"poprouter_proxy_duration_seconds_count ",
		"poprouter_shards 2",
		"poprouter_shards_healthy 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, u := range f.urls {
		label := strings.TrimPrefix(u, "http://")
		for _, series := range []string{"poprouter_shard_requests_total", "poprouter_shard_healthy", "poprouter_shard_inflight"} {
			if !strings.Contains(text, fmt.Sprintf("%s{shard=%q}", series, label)) {
				t.Errorf("metrics missing per-shard series %s for %s", series, label)
			}
		}
	}
}

// TestRouterHealthLoop pins the probe: a shard that dies is detected by the
// background health check without any proxied traffic.
func TestRouterHealthLoop(t *testing.T) {
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(serve.NewHandler(s))
	rt, err := NewRouter(Config{Shards: []string{ts.URL}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !rt.Snapshot().Healthy[normalizeOrDie(t, ts.URL)] {
		if time.Now().After(deadline) {
			t.Fatal("healthy shard never probed healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	s.Close()
	for rt.Snapshot().Healthy[normalizeOrDie(t, ts.URL)] {
		if time.Now().After(deadline) {
			t.Fatal("dead shard never probed unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterBadConfig pins configuration validation.
func TestRouterBadConfig(t *testing.T) {
	for _, shards := range [][]string{
		nil,
		{""},
		{"http://a:1", "http://a:1"},
		{"http://a:1/path"},
	} {
		if _, err := NewRouter(Config{Shards: shards}); err == nil {
			t.Errorf("config %v accepted", shards)
		}
	}
}

// TestRouterMissingInstanceKey pins the router's own 400 on bodies it
// cannot route.
func TestRouterMissingInstanceKey(t *testing.T) {
	f := newFleet(t, 1, Config{HealthInterval: -1})
	for _, body := range []string{`{}`, `{"mode": "popular"}`, `not json`} {
		if st, _ := f.do("POST", "/v1/solve", "application/json", []byte(body), nil); st != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, st)
		}
	}
	var e errorResponse
	if st, _ := f.do("GET", "/v1/sessions/nope", "", nil, &e); st != http.StatusNotFound {
		t.Error("unknown session not 404")
	}
	if want := `unknown session "nope"`; e.Error != want {
		t.Errorf("unknown session error = %q, want %q", e.Error, want)
	}
}
