package shard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/onesided"
)

// Router proxies the popserved HTTP API onto a fleet of shared-nothing
// shards, routing every instance-keyed request to the shard the rendezvous
// ring assigns its fingerprint:
//
//	POST   /v1/instances         parse body, fingerprint it, write to the
//	                             R replicas (owner's response returned)
//	GET    /v1/instances         fan out to every shard, merge, dedupe
//	GET    /v1/instances/{id}    least-loaded healthy replica (Accept and
//	                             Content-Type forwarded verbatim, so binary
//	                             downloads pass through untouched)
//	DELETE /v1/instances/{id}    every replica
//	POST   /v1/solve, /v1/verify least-loaded healthy replica of the
//	                             request's "instance" fingerprint
//	POST   /v1/sessions          the instance's owner; the router records
//	                             the minted session id -> shard binding
//	/v1/sessions/{id}...         the shard that created the session (unknown
//	                             ids are discovered by probing the fleet, so
//	                             a restarted router keeps serving old ones)
//	GET    /v1/stats             fan out, sum the counter blocks, plus
//	                             router_* keys
//	GET    /healthz              router liveness + per-shard health
//	GET    /metrics              the router's own Prometheus series
//
// Request bodies are buffered (bounded by the same 64 MiB cap as the shard
// upload endpoint), which is what makes retry-on-connection-failure safe: a
// request that never reached a shard (dial failure, connection reset before
// response) is replayed against the next replica in ring order. Session
// mutations are the exception — they are not idempotent, so they never
// retry. HTTP-level errors (4xx/5xx with a response) are the shard's answer
// and proxy back verbatim.
//
// Load shedding: the router tracks its own in-flight request count per
// shard; when every candidate shard for a request is at MaxInflight, the
// request is refused with 429 and a Retry-After header instead of building
// queue depth the shard would reject later anyway.
//
// Every proxied request carries an X-Request-Id (the caller's, or a freshly
// minted one) to the shard and back, so one id traces a request across
// processes: the router access log and the shard access log share it.
type Router struct {
	cfg     Config
	ring    *Ring
	states  map[string]*shardState
	order   []string // configuration order, for stable fan-outs
	client  *http.Client
	health  *http.Client
	metrics *routerMetrics
	logger  *slog.Logger

	// sessions maps minted session ids to the shard that created them.
	// Lost on router restart by design — sessionShard re-discovers an
	// unknown id by probing the fleet.
	sessions sync.Map // string -> string

	stop    chan struct{}
	stopped sync.WaitGroup
	closed  atomic.Bool
}

// Config sizes a Router. Zero values select the documented defaults;
// negative values disable a knob where meaningful (serve.Config convention).
type Config struct {
	// Shards are the popserved base URLs ("http://host:port"; a bare
	// host:port gets the scheme prefixed). At least one is required; one
	// shard is the single-process special case — every key routes to it.
	Shards []string
	// Replication is how many shards hold each instance (default 1). With
	// R > 1 uploads and evictions go to all R replicas of the fingerprint
	// and reads fan out to the least-loaded healthy replica.
	Replication int
	// MaxInflight bounds the router's in-flight proxied requests per shard;
	// beyond it requests shed with 429 + Retry-After (default 256,
	// negative = unbounded).
	MaxInflight int
	// RetryAfter is the hint returned with a 429 (default 1s).
	RetryAfter time.Duration
	// HealthInterval is the period of the background per-shard /healthz
	// probe (default 2s, negative = disabled; a shard also turns unhealthy
	// the moment a proxied request fails at the connection level, and only
	// the probe restores it).
	HealthInterval time.Duration
	// Logger, when non-nil, receives one access line per proxied request
	// (request id, method, path, shard, status, duration).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	} else if c.MaxInflight < 0 {
		c.MaxInflight = math.MaxInt
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	return c
}

// shardState is the router's per-shard book-keeping: health, in-flight
// count, and the counters behind the per-shard metric series. Shards share
// nothing with each other — this struct is the only router-side state a
// request touches, and it is all atomics.
type shardState struct {
	name     string // canonical base URL
	label    string // host:port, the metric label value
	inflight atomic.Int64
	healthy  atomic.Bool
	requests obs.Counter // proxied requests sent to this shard
	errors   obs.Counter // connection-level failures against this shard
}

// NormalizeShardURL canonicalizes a shard base URL (a -shards entry) to a scheme://host:port
// base URL.
func NormalizeShardURL(s string) (base, label string, err error) {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s == "" {
		return "", "", fmt.Errorf("empty shard URL")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil || u.Host == "" {
		return "", "", fmt.Errorf("invalid shard URL %q", s)
	}
	if u.Path != "" || u.RawQuery != "" {
		return "", "", fmt.Errorf("shard URL %q must be a bare base URL", s)
	}
	return u.Scheme + "://" + u.Host, u.Host, nil
}

// NewRouter builds a router over cfg.Shards and starts its health loop.
// Callers must Close it.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(cfg.Shards))
	states := make(map[string]*shardState, len(cfg.Shards))
	for _, raw := range cfg.Shards {
		base, label, err := NormalizeShardURL(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := states[base]; dup {
			return nil, fmt.Errorf("duplicate shard %q", base)
		}
		st := &shardState{name: base, label: label}
		st.healthy.Store(true)
		states[base] = st
		names = append(names, base)
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		states: states,
		order:  names,
		logger: cfg.Logger,
		// One pooled transport shared by every shard: connections are keyed
		// by host inside the transport, so per-shard pools come for free.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * len(names) * 16,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		health: &http.Client{Timeout: 2 * time.Second},
		stop:   make(chan struct{}),
	}
	rt.metrics = newRouterMetrics(rt)
	if cfg.HealthInterval > 0 {
		rt.stopped.Add(1)
		go rt.healthLoop()
	}
	return rt, nil
}

// Close stops the health loop and releases idle connections. Idempotent.
func (rt *Router) Close() {
	if rt.closed.Swap(true) {
		return
	}
	close(rt.stop)
	rt.stopped.Wait()
	if tr, ok := rt.client.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// Shards returns the shard base URLs in configuration order.
func (rt *Router) Shards() []string { return append([]string(nil), rt.order...) }

// healthLoop probes every shard's /healthz on the configured interval. A
// probe is the only way a shard marked unhealthy (by probe or by an inline
// connection failure) becomes healthy again.
func (rt *Router) healthLoop() {
	defer rt.stopped.Done()
	rt.checkHealth()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.checkHealth()
		}
	}
}

func (rt *Router) checkHealth() {
	var wg sync.WaitGroup
	for _, st := range rt.states {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			resp, err := rt.health.Get(st.name + "/healthz")
			ok := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			was := st.healthy.Swap(ok)
			if was != ok && rt.logger != nil {
				rt.logger.Warn("shard health changed", slog.String("shard", st.name), slog.Bool("healthy", ok))
			}
		}(st)
	}
	wg.Wait()
}

// candidates returns the shard states that may serve key, in preference
// order: the key's R replicas, unhealthy ones pushed back, healthy ones
// sorted by in-flight load (least-loaded first, owner winning ties). The
// unhealthy tail keeps the router failing open — with every replica marked
// down it still attempts the owner rather than erroring without trying.
func (rt *Router) candidates(key string) []*shardState {
	reps := rt.ring.Replicas(key, rt.cfg.Replication)
	out := make([]*shardState, 0, len(reps))
	for _, name := range reps {
		out = append(out, rt.states[name])
	}
	// Stable two-key ordering on (healthy, inflight), preserving ring order
	// between equals; len(out) is R (1..4 in practice), insertion sort.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && better(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func better(a, b *shardState) bool {
	ah, bh := a.healthy.Load(), b.healthy.Load()
	if ah != bh {
		return ah
	}
	return a.inflight.Load() < b.inflight.Load()
}

// allShards returns every shard state in configuration order (write
// fan-outs, list merges).
func (rt *Router) allShards() []*shardState {
	out := make([]*shardState, 0, len(rt.order))
	for _, name := range rt.order {
		out = append(out, rt.states[name])
	}
	return out
}

// maxProxyBody mirrors the shard upload bound (serve.maxInstanceBody): the
// router never buffers more than the shard would accept.
const maxProxyBody = 64 << 20

// ctxKeyRequestID keys the per-request id; ctxKeyShard carries the chosen
// shard name back to the access-log middleware.
type ctxKeyRequestID struct{}
type ctxKeyShard struct{}

type shardHolder struct{ name string }

func requestIDOf(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID{}).(string)
	return id
}

func newRequestID() string {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(raw[:])
}

// hopByHop lists the connection-scoped headers a proxy must not forward in
// either direction (RFC 9110 §7.6.1).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// copyHeaders copies src into dst verbatim, minus hop-by-hop headers. The
// shard sees the caller's Accept, Content-Type and custom headers untouched,
// and the caller sees the shard's — content negotiation (text vs binary
// instance download) works through the router exactly as against a shard.
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	for _, h := range hopByHop {
		dst.Del(h)
	}
}

// errAllShardsSaturated is the load-shed outcome; the handler turns it into
// a 429 with Retry-After.
var errAllShardsSaturated = errors.New("all replicas at max in-flight, retry later")

// proxyTo relays the request to the first usable candidate, replaying the
// buffered body on connection failure against the next one when retry is
// true. retryOn404 additionally treats a 404 from a non-final candidate as
// "try the next replica" — a read hitting a replica that missed a
// best-effort write falls back toward the owner instead of failing.
func (rt *Router) proxyTo(w http.ResponseWriter, r *http.Request, cands []*shardState, body []byte, retry, retryOn404 bool) {
	rt.metrics.proxied.Add(1)
	usable := cands[:0]
	for _, st := range cands {
		if st.inflight.Load() < int64(rt.cfg.MaxInflight) {
			usable = append(usable, st)
		}
	}
	if len(usable) == 0 {
		// Every replica is at the in-flight bound: shed rather than queue.
		rt.metrics.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rt.cfg.RetryAfter)))
		rt.writeError(w, r, http.StatusTooManyRequests, errAllShardsSaturated)
		return
	}
	var lastErr error
	for i, st := range usable {
		final := i == len(usable)-1
		_, err, done := rt.attempt(w, r, st, body, final || !retryOn404)
		if done {
			return
		}
		lastErr = err
		if err != nil && !retry {
			break
		}
	}
	err := errors.New("no shard could serve the request")
	if lastErr != nil {
		err = fmt.Errorf("upstream unreachable: %v", lastErr)
	}
	rt.writeError(w, r, http.StatusBadGateway, err)
}

func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// attempt sends one proxied request to st. It reports (status, err, done):
// done means the response was (or is being) written to the caller; a false
// done with non-nil err is a replayable connection failure, and a false
// done with nil err is a 404 the caller asked to fall through.
func (rt *Router) attempt(w http.ResponseWriter, r *http.Request, st *shardState, body []byte, accept404 bool) (int, error, bool) {
	st.inflight.Add(1)
	defer st.inflight.Add(-1)
	st.requests.Add(1)

	out, err := http.NewRequestWithContext(r.Context(), r.Method, st.name+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return 0, err, false
	}
	copyHeaders(out.Header, r.Header)
	out.Header.Set("X-Request-Id", requestIDOf(r))
	out.ContentLength = int64(len(body))

	t0 := time.Now()
	resp, err := rt.client.Do(out)
	rt.metrics.proxy.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		st.errors.Add(1)
		st.healthy.Store(false) // the probe will restore it
		if rt.logger != nil {
			rt.logger.Warn("proxy attempt failed",
				slog.String("request_id", requestIDOf(r)),
				slog.String("shard", st.name), slog.Any("error", err))
		}
		return 0, err, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && !accept404 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, false
	}
	if holder, ok := r.Context().Value(ctxKeyShard{}).(*shardHolder); ok {
		holder.name = st.name
	}
	h := w.Header()
	copyHeaders(h, resp.Header)
	// The router already set X-Request-Id; the shard echoes the same id, so
	// drop the duplicate rather than double-listing it.
	h["X-Request-Id"] = []string{requestIDOf(r)}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode, nil, true
}

// observe emits the router access-log line for a completed request. Requests
// the router answers itself (healthz, metrics, fan-out merges, shed and
// parse errors) log with an empty shard.
func (rt *Router) observe(r *http.Request, shardName string, status int, start time.Time) {
	if rt.logger == nil {
		return
	}
	rt.logger.Info("proxy",
		slog.String("request_id", requestIDOf(r)),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("shard", shardName),
		slog.Int("status", status),
		slog.Duration("duration", time.Since(start)),
	)
}

type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: requestIDOf(r)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readBody buffers the (bounded) request body so it can be fingerprinted
// and replayed across retries.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
}

// fingerprintBody derives the shard key of an upload: binary bodies (by
// magic) decode through the binary path, everything else through the text
// parser — the same sniffing order the shard's upload endpoint applies, so
// the router and the shard agree on what the body means. The router needs
// the full parse anyway: the fingerprint is defined over the validated CSR
// form, and an unparseable body can be rejected without burdening a shard.
func fingerprintBody(body []byte) (string, error) {
	var (
		ins *onesided.Instance
		err error
	)
	if onesided.LooksBinary(body) {
		ins, err = onesided.ReadBinary(bytes.NewReader(body))
	} else {
		ins, err = onesided.Read(bytes.NewReader(body))
	}
	if err != nil {
		return "", err
	}
	return ins.Fingerprint(), nil
}

// instanceKeyed decodes the "instance" field every instance-keyed POST body
// carries (solve, verify, session create).
func instanceKey(body []byte) (string, error) {
	var req struct {
		Instance string `json:"instance"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", fmt.Errorf("invalid request body: %w", err)
	}
	if req.Instance == "" {
		return "", fmt.Errorf("request body missing \"instance\"")
	}
	return req.Instance, nil
}

// NewHandler returns the HTTP handler serving rt.
func NewHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		shards := make(map[string]bool, len(rt.states))
		healthy := 0
		for name, st := range rt.states {
			ok := st.healthy.Load()
			shards[name] = ok
			if ok {
				healthy++
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "shards": shards, "healthy": healthy,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rt.WriteMetrics(w)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.aggregateStats(r.Context()))
	})

	mux.HandleFunc("POST /v1/instances", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			rt.writeError(w, r, http.StatusRequestEntityTooLarge, err)
			return
		}
		fp, err := fingerprintBody(body)
		if err != nil {
			rt.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		rt.fanWrite(w, r, fp, body)
	})
	mux.HandleFunc("GET /v1/instances", func(w http.ResponseWriter, r *http.Request) {
		rt.mergeLists(w, r, "/v1/instances", true)
	})
	mux.HandleFunc("GET /v1/instances/{id}", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyTo(w, r, rt.candidates(r.PathValue("id")), nil, true, true)
	})
	mux.HandleFunc("DELETE /v1/instances/{id}", func(w http.ResponseWriter, r *http.Request) {
		rt.fanWrite(w, r, r.PathValue("id"), nil)
	})

	keyedPost := func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			rt.writeError(w, r, http.StatusRequestEntityTooLarge, err)
			return
		}
		key, err := instanceKey(body)
		if err != nil {
			rt.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		rt.proxyTo(w, r, rt.candidates(key), body, true, true)
	}
	mux.HandleFunc("POST /v1/solve", keyedPost)
	mux.HandleFunc("POST /v1/verify", keyedPost)

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		rt.createSession(w, r)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		rt.mergeLists(w, r, "/v1/sessions", false)
	})
	sessionProxy := func(retry bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			st, ok := rt.sessionShard(r.Context(), id)
			if !ok {
				rt.writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
				return
			}
			body, err := readBody(w, r)
			if err != nil {
				rt.writeError(w, r, http.StatusRequestEntityTooLarge, err)
				return
			}
			rt.proxyTo(w, r, []*shardState{st}, body, retry, false)
		}
	}
	mux.HandleFunc("GET /v1/sessions/{id}", sessionProxy(true))
	mux.HandleFunc("POST /v1/sessions/{id}/solve", sessionProxy(true))
	// Mutations are not idempotent: a connection that died mid-request may
	// or may not have applied the batch, so the router never replays it.
	mux.HandleFunc("POST /v1/sessions/{id}/mutations", sessionProxy(false))
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, ok := rt.sessionShard(r.Context(), id)
		if !ok {
			rt.writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
			return
		}
		rt.sessions.Delete(id)
		rt.proxyTo(w, r, []*shardState{st}, nil, true, false)
	})

	return rt.withObservability(mux)
}

// withObservability assigns every request its id (echoed or minted) before
// routing, so even requests the router answers itself (shed, 404, parse
// errors) carry X-Request-Id in header and error body, and emits exactly one
// access-log line per request on completion — fan-out merges and
// router-local answers included, not just single-shard proxies.
func (rt *Router) withObservability(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		holder := &shardHolder{}
		ctx := context.WithValue(r.Context(), ctxKeyRequestID{}, id)
		ctx = context.WithValue(ctx, ctxKeyShard{}, holder)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r = r.WithContext(ctx)
		h.ServeHTTP(sw, r)
		rt.observe(r, holder.name, sw.status, start)
	})
}

// statusWriter records the status code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// fanWrite sends a write (upload, evict) to every replica of key in ring
// order and relays the most-preferred successful response (the owner's,
// when the owner is reachable). Replica failures beyond the first success
// are best-effort: counted and logged, not surfaced — the read path falls
// back toward the owner on a 404. If no replica produces a success, the
// most-preferred HTTP response (e.g. the owner's 404 on evict) proxies
// back; all-connection-failure is a 502.
func (rt *Router) fanWrite(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	rt.metrics.proxied.Add(1)
	reps := rt.ring.Replicas(key, rt.cfg.Replication)
	type reply struct {
		status int
		header http.Header
		body   []byte
	}
	var relay *reply
	relayShard := ""
	saturated := 0
	var lastErr error
	for _, name := range reps {
		st := rt.states[name]
		if st.inflight.Load() >= int64(rt.cfg.MaxInflight) {
			saturated++
			continue
		}
		st.inflight.Add(1)
		st.requests.Add(1)
		out, err := http.NewRequestWithContext(r.Context(), r.Method, st.name+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			st.inflight.Add(-1)
			lastErr = err
			continue
		}
		copyHeaders(out.Header, r.Header)
		out.Header.Set("X-Request-Id", requestIDOf(r))
		out.ContentLength = int64(len(body))
		t0 := time.Now()
		resp, err := rt.client.Do(out)
		rt.metrics.proxy.Observe(time.Since(t0).Nanoseconds())
		st.inflight.Add(-1)
		if err != nil {
			st.errors.Add(1)
			st.healthy.Store(false)
			lastErr = err
			if rt.logger != nil {
				rt.logger.Warn("replica write failed",
					slog.String("request_id", requestIDOf(r)),
					slog.String("shard", st.name), slog.Any("error", err))
			}
			continue
		}
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		resp.Body.Close()
		success := resp.StatusCode < 400
		// Keep the most-preferred response: the first success wins outright;
		// otherwise the first HTTP response of any kind stands in.
		if relay == nil || (success && relay.status >= 400) {
			relay = &reply{status: resp.StatusCode, header: resp.Header, body: respBody}
			relayShard = st.name
		}
	}
	switch {
	case relay != nil:
		if holder, ok := r.Context().Value(ctxKeyShard{}).(*shardHolder); ok {
			holder.name = relayShard
		}
		h := w.Header()
		copyHeaders(h, relay.header)
		h["X-Request-Id"] = []string{requestIDOf(r)}
		w.WriteHeader(relay.status)
		w.Write(relay.body)
	case saturated == len(reps):
		rt.metrics.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rt.cfg.RetryAfter)))
		rt.writeError(w, r, http.StatusTooManyRequests, errAllShardsSaturated)
	default:
		rt.writeError(w, r, http.StatusBadGateway, fmt.Errorf("upstream unreachable: %v", lastErr))
	}
}

// createSession routes a session-create to the instance's replicas (the
// session lives wherever it is created — usually the owner) and records the
// minted id so subsequent session calls route straight there.
func (rt *Router) createSession(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		rt.writeError(w, r, http.StatusRequestEntityTooLarge, err)
		return
	}
	key, err := instanceKey(body)
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	rec := &sessionRecorder{ResponseWriter: w}
	rt.proxyTo(rec, r, rt.candidates(key), body, true, true)
	holder, _ := r.Context().Value(ctxKeyShard{}).(*shardHolder)
	if rec.status == http.StatusCreated && holder != nil && holder.name != "" {
		var info struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(rec.buf.Bytes(), &info) == nil && info.ID != "" {
			rt.sessions.Store(info.ID, holder.name)
		}
	}
}

// sessionRecorder tees a session-create response so the router can learn
// the minted session id while streaming the response through.
type sessionRecorder struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (s *sessionRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *sessionRecorder) Write(p []byte) (int, error) {
	s.buf.Write(p)
	return s.ResponseWriter.Write(p)
}

// sessionShard resolves the shard holding session id: from the router's
// binding table, or — after a router restart lost the table — by probing
// each shard for the session. A discovered binding is re-recorded.
func (rt *Router) sessionShard(ctx context.Context, id string) (*shardState, bool) {
	if name, ok := rt.sessions.Load(id); ok {
		if st, ok := rt.states[name.(string)]; ok {
			return st, true
		}
	}
	for _, st := range rt.allShards() {
		if !st.healthy.Load() {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.name+"/v1/sessions/"+url.PathEscape(id), nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			rt.sessions.Store(id, st.name)
			return st, true
		}
	}
	return nil, false
}

// mergeLists fans a GET to every shard and merges the JSON arrays. With
// replication an instance appears on R shards; dedupe by "id" keeps the
// merged listing one-entry-per-object (sessions are unique per shard, but
// the same dedupe is harmless and keeps the code shared).
func (rt *Router) mergeLists(w http.ResponseWriter, r *http.Request, path string, dedupe bool) {
	type idOnly struct {
		ID string `json:"id"`
	}
	merged := []json.RawMessage{}
	seen := make(map[string]bool)
	var firstErr error
	for _, st := range rt.allShards() {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, st.name+path, nil)
		if err != nil {
			continue
		}
		req.Header.Set("X-Request-Id", requestIDOf(r))
		st.requests.Add(1)
		resp, err := rt.client.Do(req)
		if err != nil {
			st.errors.Add(1)
			st.healthy.Store(false)
			firstErr = err
			continue
		}
		var items []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, maxProxyBody)).Decode(&items)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			firstErr = err
			continue
		}
		for _, it := range items {
			if dedupe {
				var x idOnly
				if json.Unmarshal(it, &x) == nil && x.ID != "" {
					if seen[x.ID] {
						continue
					}
					seen[x.ID] = true
				}
			}
			merged = append(merged, it)
		}
	}
	if len(merged) == 0 && firstErr != nil && rt.healthyCount() == 0 {
		rt.writeError(w, r, http.StatusBadGateway, fmt.Errorf("upstream unreachable: %v", firstErr))
		return
	}
	writeJSON(w, http.StatusOK, merged)
}

func (rt *Router) healthyCount() int {
	n := 0
	for _, st := range rt.states {
		if st.healthy.Load() {
			n++
		}
	}
	return n
}

// aggregateStats fans /v1/stats to every reachable shard and sums the
// counter blocks, then appends the router's own keys (router_shards,
// router_shards_healthy, router_shed, router_proxied) — a fleet-wide view
// with the same key vocabulary as a single shard.
func (rt *Router) aggregateStats(ctx context.Context) map[string]int64 {
	sum := make(map[string]int64, 24)
	for _, st := range rt.allShards() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.name+"/v1/stats", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			st.errors.Add(1)
			st.healthy.Store(false)
			continue
		}
		var m map[string]int64
		err = json.NewDecoder(io.LimitReader(resp.Body, maxProxyBody)).Decode(&m)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for k, v := range m {
			if k == "uptime_seconds" {
				// Summing uptimes is meaningless; report the fleet minimum
				// (the youngest shard bounds how long the fleet has been whole).
				if cur, ok := sum[k]; !ok || v < cur {
					sum[k] = v
				}
				continue
			}
			sum[k] += v
		}
	}
	sum["router_shards"] = int64(len(rt.states))
	sum["router_shards_healthy"] = int64(rt.healthyCount())
	sum["router_shed"] = rt.metrics.shed.Load()
	sum["router_proxied"] = rt.metrics.proxied.Load()
	return sum
}
