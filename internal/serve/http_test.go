package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/onesided"
	"repro/popmatch"
)

// httpServer spins a Server behind httptest and returns a tiny JSON client.
type httpClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httpClient) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, &httpClient{t: t, base: ts.URL, c: ts.Client()}
}

// do issues a request and decodes the JSON response into out (if non-nil),
// returning the HTTP status.
func (h *httpClient) do(method, path, contentType string, body []byte, out any) int {
	h.t.Helper()
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			h.t.Fatalf("%s %s: undecodable response %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

func (h *httpClient) upload(ins *onesided.Instance) instanceInfo {
	h.t.Helper()
	var buf bytes.Buffer
	if err := onesided.Write(&buf, ins); err != nil {
		h.t.Fatal(err)
	}
	var info instanceInfo
	if st := h.do("POST", "/v1/instances", "text/plain", buf.Bytes(), &info); st != http.StatusCreated && st != http.StatusOK {
		h.t.Fatalf("upload status %d", st)
	}
	return info
}

func (h *httpClient) solve(id string, mode popmatch.Mode) (solveResponse, int) {
	h.t.Helper()
	body, _ := json.Marshal(solveRequest{Instance: id, Mode: mode.String()})
	var out solveResponse
	st := h.do("POST", "/v1/solve", "application/json", body, &out)
	return out, st
}

func TestHTTPEndToEnd(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 2})

	// Health first.
	var health map[string]string
	if st := h.do("GET", "/healthz", "", nil, &health); st != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", st, health)
	}

	// Upload: strict, ties, capacitated.
	rng := rand.New(rand.NewSource(21))
	strict := h.upload(onesided.Solvable(rng, 40, 12, 4))
	ties := h.upload(onesided.RandomTies(rng, 25, 20, 1, 4, 0.4))
	capIns := h.upload(onesided.RandomCapacitated(rng, 30, 12, 2, 4, 3))
	if !capIns.Capacitated || capIns.Strict == false && ties.Strict {
		t.Fatalf("instance metadata wrong: %+v %+v", ties, capIns)
	}

	// Idempotent re-upload returns 200 (not 201) and the same id.
	again := h.upload(onesided.Solvable(rand.New(rand.NewSource(21)), 40, 12, 4))
	if again.ID != strict.ID {
		t.Fatalf("re-upload changed id: %s vs %s", again.ID, strict.ID)
	}

	// List shows all three.
	var list []instanceInfo
	if st := h.do("GET", "/v1/instances", "", nil, &list); st != http.StatusOK || len(list) != 3 {
		t.Fatalf("list: %d with %d entries", st, len(list))
	}

	// Solve each flavor and verify the answers over HTTP.
	for _, tc := range []struct {
		id   string
		mode popmatch.Mode
	}{{strict.ID, popmatch.ModePopular}, {ties.ID, popmatch.ModeTiesMax}, {capIns.ID, popmatch.ModeMaxCard}} {
		out, st := h.solve(tc.id, tc.mode)
		if st != http.StatusOK {
			t.Fatalf("solve %s/%s: status %d", tc.id, tc.mode, st)
		}
		if !out.Exists {
			continue
		}
		vbody, _ := json.Marshal(verifyRequest{Instance: tc.id, PostOf: out.PostOf})
		var verdict verifyResponse
		if st := h.do("POST", "/v1/verify", "application/json", vbody, &verdict); st != http.StatusOK {
			t.Fatalf("verify %s: status %d", tc.id, st)
		}
		if !verdict.Popular {
			t.Fatalf("verify rejected the served solution for %s/%s (margin %d)", tc.id, tc.mode, verdict.Margin)
		}
	}

	// Repeat solve is served from cache.
	out, _ := h.solve(strict.ID, popmatch.ModePopular)
	if !out.Cached {
		t.Fatal("repeat solve not served from cache")
	}

	// Capacitated solve carries rosters and they respect capacities.
	capOut, _ := h.solve(capIns.ID, popmatch.ModeMaxCard)
	if capOut.Exists && len(capOut.AssignedTo) != capIns.Posts {
		t.Fatalf("capacitated response has %d rosters for %d posts", len(capOut.AssignedTo), capIns.Posts)
	}

	// Stats reflect the traffic.
	var stats map[string]int64
	if st := h.do("GET", "/v1/stats", "", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats: %d", st)
	}
	if stats["requests"] == 0 || stats["cache_hits"] == 0 || stats["solves"] == 0 {
		t.Fatalf("stats not populated: %v", stats)
	}
	if stats["instances"] != 3 {
		t.Fatalf("stats instances %d, want 3", stats["instances"])
	}

	// Evict and 404 afterwards.
	if st := h.do("DELETE", "/v1/instances/"+ties.ID, "", nil, nil); st != http.StatusOK {
		t.Fatalf("evict: %d", st)
	}
	if _, st := h.solve(ties.ID, popmatch.ModeTies); st != http.StatusNotFound {
		t.Fatalf("solve of evicted instance: %d, want 404", st)
	}
	if st := h.do("DELETE", "/v1/instances/"+ties.ID, "", nil, nil); st != http.StatusNotFound {
		t.Fatalf("double evict: %d, want 404", st)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1})

	// Malformed instance body.
	var e errorResponse
	if st := h.do("POST", "/v1/instances", "text/plain", []byte("posts x\n"), &e); st != http.StatusBadRequest {
		t.Fatalf("bad instance: %d", st)
	}
	// Malformed JSON.
	if st := h.do("POST", "/v1/solve", "application/json", []byte("{"), &e); st != http.StatusBadRequest {
		t.Fatalf("bad json: %d", st)
	}
	// Unknown mode.
	body, _ := json.Marshal(solveRequest{Instance: "x", Mode: "banana"})
	if st := h.do("POST", "/v1/solve", "application/json", body, &e); st != http.StatusBadRequest {
		t.Fatalf("bad mode: %d", st)
	}
	// Unknown instance.
	body, _ = json.Marshal(solveRequest{Instance: "deadbeef", Mode: "popular"})
	if st := h.do("POST", "/v1/solve", "application/json", body, &e); st != http.StatusNotFound {
		t.Fatalf("unknown instance: %d", st)
	}
	if want := "unknown instance"; e.Error != want {
		t.Fatalf("unknown instance error = %q, want %q", e.Error, want)
	}
	// Unsupported mode for the instance shape → 422, in the caller's terms
	// (no internal package name).
	rng := rand.New(rand.NewSource(5))
	ties := h.upload(onesided.RandomTies(rng, 10, 8, 1, 3, 0.6))
	body, _ = json.Marshal(solveRequest{Instance: ties.ID, Mode: "popular"})
	if st := h.do("POST", "/v1/solve", "application/json", body, &e); st != http.StatusUnprocessableEntity {
		t.Fatalf("strict solve of tied instance: %d, want 422", st)
	}
	if want := "Algorithm 1 requires strictly-ordered preference lists"; e.Error != want {
		t.Fatalf("strict solve of tied instance error = %q, want %q", e.Error, want)
	}
	capID := h.upload(onesided.RandomCapacitated(rng, 10, 5, 1, 3, 3)).ID
	body, _ = json.Marshal(solveRequest{Instance: capID, Mode: "maxweight"})
	if st := h.do("POST", "/v1/solve", "application/json", body, &e); st != http.StatusUnprocessableEntity {
		t.Fatalf("maxweight solve of capacitated instance: %d, want 422", st)
	}
	if want := "mode maxweight does not support capacitated instances"; e.Error != want {
		t.Fatalf("maxweight solve of capacitated instance error = %q, want %q", e.Error, want)
	}
	// Structurally invalid verify → 422.
	vbody, _ := json.Marshal(verifyRequest{Instance: ties.ID, PostOf: []int32{0}})
	if st := h.do("POST", "/v1/verify", "application/json", vbody, &e); st != http.StatusUnprocessableEntity {
		t.Fatalf("short verify: %d, want 422", st)
	}
	if want := "post_of has 1 entries for 10 applicants"; e.Error != want {
		t.Fatalf("short verify error = %q, want %q", e.Error, want)
	}
	// A post off the applicant's list → 422, in the caller's terms (no
	// internal package name).
	small, err := onesided.NewStrict(3, [][]int32{{0, 1}, {1, 0}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ = json.Marshal(verifyRequest{Instance: h.upload(small).ID, PostOf: []int32{2, 1, 2}})
	if st := h.do("POST", "/v1/verify", "application/json", vbody, &e); st != http.StatusUnprocessableEntity {
		t.Fatalf("off-list verify: %d, want 422", st)
	}
	if want := "applicant 0 assigned post 2 not on their list"; e.Error != want {
		t.Fatalf("off-list verify error = %q, want %q", e.Error, want)
	}
}

// TestHTTPConcurrentLoadBatches drives the HTTP surface with concurrent
// clients and checks that duplicate requests share solves (a flight serving
// more than one request) without solve errors.
func TestHTTPConcurrentLoadBatches(t *testing.T) {
	s, h := newHTTPServer(t, Config{Workers: 2, CacheSize: -1})
	rng := rand.New(rand.NewSource(33))
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = h.upload(onesided.Solvable(rng, 80, 20, 4)).ID
	}
	// Hold the solve slots until every client's first request has met the
	// others in a flight.
	holdSlots(s)
	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, st := h.solve(ids[(c+i)%len(ids)], popmatch.ModePopular); st != http.StatusOK {
					t.Errorf("client %d: status %d", c, st)
					return
				}
			}
		}(c)
	}
	waitFor(t, "every client to wait on a flight", func() bool { return s.stats.BatchedRequests.Load() == clients })
	releaseSlots(s)
	wg.Wait()
	st := s.Stats()
	if st["max_batch"] < 2 {
		t.Fatalf("shared solves not observable over HTTP: %v", st)
	}
	if st["solve_errors"] != 0 {
		t.Fatalf("solve errors under load: %v", st)
	}
}

// verifyRoundTripFormat pins the wire convention: entries >= posts are last
// resorts and survive a solve→verify round trip.
func TestHTTPLastResortWireConvention(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1})
	// Two applicants fighting over one post: someone ends on a last resort.
	ins, err := onesided.NewStrict(1, [][]int32{{0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	info := h.upload(ins)
	out, st := h.solve(info.ID, popmatch.ModePopular)
	if st != http.StatusOK || !out.Exists {
		t.Fatalf("solve: %d exists=%v", st, out.Exists)
	}
	lastResorts := 0
	for _, p := range out.PostOf {
		if int(p) >= info.Posts {
			lastResorts++
		}
	}
	if lastResorts != 1 {
		t.Fatalf("expected exactly one last resort in %v", out.PostOf)
	}
	vbody, _ := json.Marshal(verifyRequest{Instance: info.ID, PostOf: out.PostOf})
	var verdict verifyResponse
	if st := h.do("POST", "/v1/verify", "application/json", vbody, &verdict); st != http.StatusOK || !verdict.Popular {
		t.Fatalf("round-tripped solution did not verify: %d %+v", st, verdict)
	}
}

// TestHTTPUnifiedModeSet drives the extended mode table over HTTP: every
// mode of the shared engine enum is servable by name, the weighted modes run
// the built-in cardinality weights without a weight upload, and the
// response echoes the canonical mode name. Unknown modes stay a clear 400
// and weighted modes on capacitated instances a 422.
func TestHTTPUnifiedModeSet(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(12))
	strict := h.upload(onesided.Solvable(rng, 30, 8, 4))
	capIns := h.upload(onesided.RandomCapacitated(rng, 20, 8, 2, 4, 3))

	for _, mode := range []popmatch.Mode{popmatch.ModeRankMaximal, popmatch.ModeFair, popmatch.ModeMaxWeight, popmatch.ModeMinWeight} {
		out, st := h.solve(strict.ID, mode)
		if st != http.StatusOK {
			t.Fatalf("solve %s: status %d", mode, st)
		}
		if out.Mode != mode.String() {
			t.Fatalf("response mode %q, want %q", out.Mode, mode.String())
		}
		if !out.Exists {
			t.Fatalf("mode %s: solvable instance reported unsolvable", mode)
		}
		// Every optimal variant is popular; verify through the margin oracle.
		vbody, _ := json.Marshal(verifyRequest{Instance: strict.ID, PostOf: out.PostOf})
		var verdict verifyResponse
		if st := h.do("POST", "/v1/verify", "application/json", vbody, &verdict); st != http.StatusOK || !verdict.Popular {
			t.Fatalf("mode %s solution did not verify: %d %+v", mode, st, verdict)
		}
	}

	// The historical CLI alias parses too.
	body, _ := json.Marshal(solveRequest{Instance: strict.ID, Mode: "rankmax"})
	var out solveResponse
	if st := h.do("POST", "/v1/solve", "application/json", body, &out); st != http.StatusOK || out.Mode != "rankmaximal" {
		t.Fatalf("rankmax alias: %d %+v", st, out)
	}

	// Unknown mode: a clear 400 naming the valid set.
	var e errorResponse
	body, _ = json.Marshal(solveRequest{Instance: strict.ID, Mode: "optimal"})
	if st := h.do("POST", "/v1/solve", "application/json", body, &e); st != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d", st)
	}
	if !strings.HasPrefix(e.Error, `unknown mode "optimal" (valid: `) || !strings.Contains(e.Error, "rankmaximal") {
		t.Fatalf("unknown-mode error unhelpful: %q", e.Error)
	}

	// Weighted modes have no capacitated route: the request's fault, 422.
	if _, st := h.solve(capIns.ID, popmatch.ModeMaxWeight); st != http.StatusUnprocessableEntity {
		t.Fatalf("maxweight on capacitated instance: %d, want 422", st)
	}
}

// TestHTTPSessionLifecycle drives the delta-session endpoints end to end:
// fork a session off an uploaded instance, re-match, mutate, re-match warm,
// and check the epoch/cache semantics a client sees on the wire.
func TestHTTPSessionLifecycle(t *testing.T) {
	_, h := newHTTPServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(51))
	ins := onesided.Solvable(rng, 100, 25, 4)
	info := h.upload(ins)

	// Create.
	body, _ := json.Marshal(sessionCreateRequest{Instance: info.ID})
	var sess SessionInfo
	if st := h.do("POST", "/v1/sessions", "application/json", body, &sess); st != http.StatusCreated {
		t.Fatalf("create session: %d", st)
	}
	if sess.Source != info.ID || sess.Applicants != 100 {
		t.Fatalf("session info: %+v", sess)
	}
	// Creating from an unknown instance is a 404.
	body, _ = json.Marshal(sessionCreateRequest{Instance: "deadbeef"})
	if st := h.do("POST", "/v1/sessions", "application/json", body, nil); st != http.StatusNotFound {
		t.Fatalf("create from unknown instance: %d", st)
	}

	// List and get.
	var list []SessionInfo
	if st := h.do("GET", "/v1/sessions", "", nil, &list); st != http.StatusOK || len(list) != 1 {
		t.Fatalf("list sessions: %d with %d entries", st, len(list))
	}
	if st := h.do("GET", "/v1/sessions/"+sess.ID, "", nil, &sess); st != http.StatusOK {
		t.Fatalf("get session: %d", st)
	}

	solve := func() sessionSolveResponse {
		t.Helper()
		body, _ := json.Marshal(sessionSolveRequest{Mode: "popular"})
		var out sessionSolveResponse
		if st := h.do("POST", "/v1/sessions/"+sess.ID+"/solve", "application/json", body, &out); st != http.StatusOK {
			t.Fatalf("session solve: %d", st)
		}
		return out
	}

	// First solve: full capture; repeat: cache hit at the same epoch.
	first := solve()
	if first.Cached || first.Warm || !first.Exists || first.Epoch != 0 {
		t.Fatalf("first session solve: %+v", first)
	}
	if again := solve(); !again.Cached {
		t.Fatalf("re-query not cached: %+v", again)
	}

	// Mutate one row, re-match: a new epoch, served warm, uncached.
	mbody, _ := json.Marshal(sessionMutateRequest{Mutations: []Mutation{
		{Op: "set_preferences", Applicant: 7, Posts: []int32{7, 100, 101}},
	}})
	var mut sessionMutateResponse
	if st := h.do("POST", "/v1/sessions/"+sess.ID+"/mutations", "application/json", mbody, &mut); st != http.StatusOK {
		t.Fatalf("mutate: %d", st)
	}
	if mut.Session.Epoch == 0 || len(mut.Applied) != 1 {
		t.Fatalf("mutate response: %+v", mut)
	}
	second := solve()
	if second.Cached || !second.Warm || second.Epoch != mut.Session.Epoch {
		t.Fatalf("post-mutation solve: %+v", second)
	}
	// The re-match verifies popular against the session's current instance
	// via the one-shot oracle on an identically mutated copy.
	mutated := ins.Clone()
	if err := mutated.SetPreferences(7, []int32{7, 100, 101}, nil); err != nil {
		t.Fatal(err)
	}
	mutatedInfo := h.upload(mutated)
	vbody, _ := json.Marshal(verifyRequest{Instance: mutatedInfo.ID, PostOf: second.PostOf})
	var verdict verifyResponse
	if st := h.do("POST", "/v1/verify", "application/json", vbody, &verdict); st != http.StatusOK || !verdict.Popular {
		t.Fatalf("warm re-match did not verify popular: %d %+v", st, verdict)
	}

	// Invalid mutations are the request's fault: 422.
	mbody, _ = json.Marshal(sessionMutateRequest{Mutations: []Mutation{{Op: "set_preferences", Applicant: 1000, Posts: []int32{0}}}})
	var e errorResponse
	if st := h.do("POST", "/v1/sessions/"+sess.ID+"/mutations", "application/json", mbody, &e); st != http.StatusUnprocessableEntity {
		t.Fatalf("bad mutation: %d (%+v)", st, e)
	}

	// Delete, then everything 404s.
	if st := h.do("DELETE", "/v1/sessions/"+sess.ID, "", nil, nil); st != http.StatusOK {
		t.Fatalf("delete session: %d", st)
	}
	body, _ = json.Marshal(sessionSolveRequest{Mode: "popular"})
	if st := h.do("POST", "/v1/sessions/"+sess.ID+"/solve", "application/json", body, &e); st != http.StatusNotFound {
		t.Fatalf("solve of deleted session: %d", st)
	}
	if st := h.do("GET", "/v1/sessions/"+sess.ID, "", nil, &e); st != http.StatusNotFound {
		t.Fatalf("get of deleted session: %d", st)
	}
}

// TestHTTPBinaryDownload pins the instance-download content negotiation:
// GET /v1/instances/{id} with Accept: application/x-popmatch-binary returns
// the instance's .pmb encoding — decodable, fingerprint-identical to the
// registered content, re-uploadable to the same id — while the default
// Accept keeps returning the JSON info, and downloads of capacitated
// instances carry their capacities.
func TestHTTPBinaryDownload(t *testing.T) {
	_, h := newHTTPServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	info := h.upload(onesided.Solvable(rng, 40, 12, 4))

	get := func(accept string) (*http.Response, []byte) {
		req, err := http.NewRequest("GET", h.base+"/v1/instances/"+info.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := h.c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	resp, raw := get(ContentTypeBinary)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ContentTypeBinary {
		t.Fatalf("binary download: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	ins, err := onesided.DecodeBinary(raw)
	if err != nil {
		t.Fatalf("downloaded body does not decode: %v", err)
	}
	if fp := ins.Fingerprint(); fp != info.ID {
		t.Fatalf("downloaded fingerprint %s != registered id %s", fp, info.ID)
	}
	// Round trip: the downloaded bytes re-upload to the same id.
	var re instanceInfo
	if st := h.do("POST", "/v1/instances", ContentTypeBinary, raw, &re); st != http.StatusOK || re.ID != info.ID {
		t.Fatalf("re-upload of download: status %d id %s (want 200 %s)", st, re.ID, info.ID)
	}

	// q-values and extra ranges still negotiate binary; default and */*
	// stay JSON.
	if resp, _ := get("text/html, application/x-popmatch-binary;q=0.9"); resp.Header.Get("Content-Type") != ContentTypeBinary {
		t.Fatalf("Accept list with binary member got %q", resp.Header.Get("Content-Type"))
	}
	for _, accept := range []string{"", "*/*", "application/json"} {
		resp, raw := get(accept)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Accept %q: Content-Type %q, want JSON info", accept, ct)
		}
		var got instanceInfo
		if err := json.Unmarshal(raw, &got); err != nil || got.ID != info.ID {
			t.Fatalf("Accept %q: bad info response %q (%v)", accept, raw, err)
		}
	}

	// Capacitated download keeps capacities.
	capIns := onesided.RandomCapacitated(rng, 20, 6, 2, 4, 3)
	capInfo := h.upload(capIns)
	req, _ := http.NewRequest("GET", h.base+"/v1/instances/"+capInfo.ID, nil)
	req.Header.Set("Accept", ContentTypeBinary)
	resp2, err := h.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	capBack, err := onesided.DecodeBinary(raw2)
	if err != nil {
		t.Fatal(err)
	}
	if capBack.UnitCapacity() || capBack.Fingerprint() != capInfo.ID {
		t.Fatalf("capacitated download lost capacities or content: unit=%v fp=%s want %s",
			capBack.UnitCapacity(), capBack.Fingerprint(), capInfo.ID)
	}

	// Unknown id still 404s regardless of Accept.
	req, _ = http.NewRequest("GET", h.base+"/v1/instances/nope", nil)
	req.Header.Set("Accept", ContentTypeBinary)
	resp3, err := h.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("binary download of unknown id: %d", resp3.StatusCode)
	}
}
