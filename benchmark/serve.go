package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/popmatch"
)

// serveEnv is popserved in-process behind a loopback listener, alone
// (serve_miss) or as two shards behind an in-process poprouter
// (serve_hit_routed). Ops are POST /v1/solve on registered instances.
type serveEnv struct {
	servers   []*serve.Server
	listeners []*httptest.Server // front listener last
	router    *shard.Router
	c         *client
	seed      int64

	ids          []string
	maxcardShare float64 // share of ops asking for ModeMaxCard
	bodies       [][2][]byte
	ref          [][2]*popmatch.Result

	// verified holds, per (instance, mode), the first response body, once it
	// has been decoded and compared with the library reference; every later
	// response must equal it byte for byte.
	mu       sync.Mutex
	verified [][2][]byte
}

var serveModes = [2]popmatch.Mode{popmatch.ModePopular, popmatch.ModeMaxCard}

// setupServeMiss: one popserved with its result cache disabled, so every
// request is admitted, batched and solved.
func setupServeMiss(ctx context.Context, o options, tr *tracer) (env, error) {
	e := &serveEnv{seed: o.seed, maxcardShare: 0.25}
	srv := serve.New(serve.Config{CacheSize: -1})
	e.servers = []*serve.Server{srv}
	e.listen(tr.wrap("serve", false, serve.NewHandler(srv)))
	n := o.sizes.missN
	if err := e.load(ctx, rand.New(rand.NewSource(o.seed)), o.sizes.serveInstances, n, n/4+1, 4); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupServeHit: a poprouter over two default popserved shards, with every
// (instance, popular) result solved once so that each measured request is a
// cache hit carrying a large JSON result.
func setupServeHit(ctx context.Context, o options, tr *tracer) (env, error) {
	e := &serveEnv{seed: o.seed}
	urls := make([]string, 2)
	for i := range urls {
		srv := serve.New(serve.Config{})
		e.servers = append(e.servers, srv)
		urls[i] = e.listen(tr.wrap("serve", true, serve.NewHandler(srv)))
	}
	rt, err := shard.NewRouter(shard.Config{Shards: urls, HealthInterval: -1})
	if err != nil {
		e.close()
		return nil, err
	}
	e.router = rt
	e.listen(tr.wrap("shard", false, shard.NewHandler(rt)))
	n := o.sizes.hitN
	if err := e.load(ctx, rand.New(rand.NewSource(o.seed)), o.sizes.serveInstances, n, n/4+1, 4); err != nil {
		e.close()
		return nil, err
	}
	buf := new(bytes.Buffer)
	for k := range e.ids {
		status, err := e.c.do(ctx, nil, "warm."+strconv.Itoa(k), http.MethodPost, "/v1/solve", "application/json", e.bodies[k][0], buf)
		if err == nil {
			err = expect(status, http.StatusOK, "warming solve", buf)
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// listen serves h on a loopback listener and points the client at the
// latest one, and returns its URL.
func (e *serveEnv) listen(h http.Handler) string {
	ts := httptest.NewServer(h)
	e.listeners = append(e.listeners, ts)
	if e.c != nil {
		e.c.close()
	}
	e.c = newClient(ts)
	return ts.URL
}

// load generates the instances, uploads them in binary through the front
// listener and computes their verified library references.
func (e *serveEnv) load(ctx context.Context, rng *rand.Rand, count, n, extra, listLen int) error {
	ref := popmatch.NewSolver(popmatch.Options{Workers: 1})
	defer ref.Close()
	for k := range count {
		ins := popmatch.Solvable(rng, n, extra, listLen)
		id, err := upload(ctx, e.c, "setup."+strconv.Itoa(k), ins)
		if err != nil {
			return err
		}
		var bodies [2][]byte
		var refs [2]*popmatch.Result
		for m, mode := range serveModes {
			bodies[m] = []byte(fmt.Sprintf(`{"instance": %q, "mode": %q}`, id, mode.String()))
			if m > 0 && e.maxcardShare == 0 {
				continue
			}
			res, err := ref.SolveRequest(ctx, ins, popmatch.Request{Mode: mode})
			if err != nil {
				return err
			}
			if !res.Exists {
				return fmt.Errorf("serve reference: %v found no popular matching", mode)
			}
			if err := ref.Verify(ctx, ins, res.Matching); err != nil {
				return fmt.Errorf("serve reference: %v: %w", mode, err)
			}
			refs[m] = &res
		}
		e.ids = append(e.ids, id)
		e.bodies = append(e.bodies, bodies)
		e.ref = append(e.ref, refs)
	}
	e.verified = make([][2][]byte, count)
	return nil
}

func (e *serveEnv) op(ctx context.Context, i int64, ot *opTrace) error {
	r := newOpRand(e.seed, i)
	k, m := r.intn(len(e.ids)), 0
	if r.float() < e.maxcardShare {
		m = 1
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	status, err := e.c.do(ctx, ot, requestID(i, 0), http.MethodPost, "/v1/solve", "application/json", e.bodies[k][m], buf)
	if err != nil {
		return err
	}
	if err := expect(status, http.StatusOK, "solve", buf); err != nil {
		return err
	}
	return e.check(k, m, buf.Bytes())
}

// check compares a solve response with the verified body for its key,
// verifying and keeping the first one it sees.
func (e *serveEnv) check(k, m int, body []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := e.verified[k][m]; v != nil {
		if !bytes.Equal(v, body) {
			return incorrect("instance %s %v: response differs from the verified one", e.ids[k], serveModes[m])
		}
		return nil
	}
	var got struct {
		Exists bool    `json:"exists"`
		Size   int     `json:"size"`
		PostOf []int32 `json:"post_of"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return incorrect("instance %s: undecodable response: %v", e.ids[k], err)
	}
	want := e.ref[k][m]
	if got.Exists != want.Exists || got.Size != want.Size || !slices.Equal(got.PostOf, want.Matching.PostOf) {
		return incorrect("instance %s %v: matching differs from the library reference", e.ids[k], serveModes[m])
	}
	e.verified[k][m] = bytes.Clone(body)
	return nil
}

func (e *serveEnv) stack() ([]*serve.Server, *shard.Router) { return e.servers, e.router }

func (e *serveEnv) finish(context.Context) error { return nil }

func (e *serveEnv) close() {
	if e.c != nil {
		e.c.close()
	}
	for i := len(e.listeners) - 1; i >= 0; i-- {
		e.listeners[i].Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

// upload POSTs ins in the binary format and checks that the returned id is
// the instance's client-computed fingerprint.
func upload(ctx context.Context, c *client, rid string, ins *popmatch.Instance) (string, error) {
	var body bytes.Buffer
	if err := popmatch.WriteBinary(&body, ins); err != nil {
		return "", err
	}
	return uploadBody(ctx, c, nil, rid, body.Bytes(), ins.Fingerprint(), new(bytes.Buffer))
}

func uploadBody(ctx context.Context, c *client, ot *opTrace, rid string, body []byte, want string, buf *bytes.Buffer) (string, error) {
	status, err := c.do(ctx, ot, rid, http.MethodPost, "/v1/instances", serve.ContentTypeBinary, body, buf)
	if err != nil {
		return "", err
	}
	// 200 means the instance was registered already: an earlier upload of
	// the same body may have completed on the server after its op timed out.
	if status != http.StatusOK {
		if err := expect(status, http.StatusCreated, "upload", buf); err != nil {
			return "", err
		}
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	if info.ID != want {
		return "", incorrect("upload returned id %s, want fingerprint %s", info.ID, want)
	}
	return info.ID, nil
}
