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
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/onesided"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/popmatch"
)

const (
	// uploadShare of session_churn ops upload and then evict a fresh
	// instance; the rest re-match a session.
	uploadShare = 0.1
	// rowsPerBatch preference rows change per re-match op: few enough that
	// the server's warm delta path applies.
	rowsPerBatch = 4
	churnListLen = 5
)

// sessionEnv is one default popserved whose sessions are mutated and
// re-matched while instances are uploaded and evicted beside them.
type sessionEnv struct {
	srv      *serve.Server
	ts       *httptest.Server
	c        *client
	seed     int64
	n, extra int
	sessions []*churnSession
	uploads  []*churnUpload
}

// churnSession is one server-side session and its client-side mirror. The
// mirror receives the session's mutation batches in the order the server
// applied them (recorded by the epoch each batch left), so at the end a
// fresh library solve of the mirror must equal the session's own result.
type churnSession struct {
	id     string
	mirror *popmatch.Instance

	mu      sync.Mutex
	batches []appliedBatch
}

type appliedBatch struct {
	epoch uint64
	muts  []serve.Mutation
}

type churnUpload struct {
	mu   sync.Mutex // one op at a time uploads and evicts a body
	body []byte
	id   string // client-computed fingerprint
}

func setupSession(ctx context.Context, o options, tr *tracer) (env, error) {
	sz := o.sizes
	e := &sessionEnv{seed: o.seed, n: sz.churnN, extra: sz.churnN / 4}
	e.srv = serve.New(serve.Config{})
	e.ts = httptest.NewServer(tr.wrap("serve", false, serve.NewHandler(e.srv)))
	e.c = newClient(e.ts)
	if err := e.load(ctx, rand.New(rand.NewSource(o.seed)), sz.sessions, sz.uploads); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *sessionEnv) load(ctx context.Context, rng *rand.Rand, sessions, uploads int) error {
	buf := new(bytes.Buffer)
	for k := range sessions {
		ins := popmatch.Solvable(rng, e.n, e.extra, churnListLen)
		id, err := upload(ctx, e.c, "setup."+strconv.Itoa(k), ins)
		if err != nil {
			return err
		}
		body, _ := json.Marshal(map[string]string{"instance": id})
		status, err := e.c.do(ctx, nil, "setup.s"+strconv.Itoa(k), http.MethodPost, "/v1/sessions", "application/json", body, buf)
		if err != nil {
			return err
		}
		if err := expect(status, http.StatusCreated, "create session", buf); err != nil {
			return err
		}
		var info serve.SessionInfo
		if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
			return fmt.Errorf("create session: %w", err)
		}
		s := &churnSession{id: info.ID, mirror: ins}
		// The first solve of a session captures its warm delta state.
		if _, err := e.solve(ctx, nil, "setup.w"+strconv.Itoa(k), s, false, buf); err != nil {
			return err
		}
		e.sessions = append(e.sessions, s)
	}
	for range uploads {
		ins := popmatch.Solvable(rng, e.n, e.extra, churnListLen)
		var body bytes.Buffer
		if err := popmatch.WriteBinary(&body, ins); err != nil {
			return err
		}
		e.uploads = append(e.uploads, &churnUpload{body: body.Bytes(), id: ins.Fingerprint()})
	}
	return nil
}

// sessionSolve is the part of a session solve response the per-op check
// reads. The full matching is compared once, at the end of the run.
type sessionSolve struct {
	Epoch  uint64
	Exists bool
	Size   int
	Trace  *popmatch.SolveTrace
}

// solve re-matches session s and checks that the answer exists.
func (e *sessionEnv) solve(ctx context.Context, ot *opTrace, rid string, s *churnSession, trace bool, buf *bytes.Buffer) (*sessionSolve, error) {
	body := []byte(`{"mode": "popular"}`)
	if trace {
		body = []byte(`{"mode": "popular", "trace": true}`)
	}
	status, err := e.c.do(ctx, ot, rid, http.MethodPost, "/v1/sessions/"+s.id+"/solve", "application/json", body, buf)
	if err != nil {
		return nil, err
	}
	if err := expect(status, http.StatusOK, "session solve", buf); err != nil {
		return nil, err
	}
	got, err := readSolve(buf.Bytes(), trace)
	if err != nil {
		return nil, incorrect("session %s: undecodable solve response: %v", s.id, err)
	}
	if !got.Exists || got.Size == 0 {
		return nil, incorrect("session %s: solve returned exists=%v size=%d", s.id, got.Exists, got.Size)
	}
	return got, nil
}

// readSolve decodes the epoch, exists and size fields of a session solve
// response, and its trace when asked to, without decoding the post_of array
// between them: doing that on every op would make the client a large share
// of the latency it measures.
func readSolve(body []byte, trace bool) (*sessionSolve, error) {
	var got sessionSolve
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	for need := 3; need > 0; need-- {
		var dst any
		for dst == nil {
			if !dec.More() {
				return nil, fmt.Errorf("response lacks epoch, exists or size")
			}
			key, err := dec.Token()
			if err != nil {
				return nil, err
			}
			switch key {
			case "epoch":
				dst = &got.Epoch
			case "exists":
				dst = &got.Exists
			case "size":
				dst = &got.Size
			default:
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					return nil, err
				}
			}
		}
		if err := dec.Decode(dst); err != nil {
			return nil, err
		}
	}
	if trace {
		// The trace is the response's last field, after post_of.
		const key = `"trace":`
		i := bytes.LastIndex(body, []byte(key))
		if i < 0 {
			return nil, fmt.Errorf("response lacks its trace")
		}
		if err := json.NewDecoder(bytes.NewReader(body[i+len(key):])).Decode(&got.Trace); err != nil {
			return nil, err
		}
	}
	return &got, nil
}

func (e *sessionEnv) op(ctx context.Context, i int64, ot *opTrace) error {
	r := newOpRand(e.seed, i)
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	if r.float() < uploadShare {
		return e.churnUpload(ctx, ot, i, e.uploads[int(i%int64(len(e.uploads)))], buf)
	}
	s := e.sessions[r.intn(len(e.sessions))]
	muts := make([]serve.Mutation, rowsPerBatch)
	for j := range muts {
		// Keep each applicant's unique first choice so the instance stays
		// solvable; the seconds are redrawn.
		a := r.intn(e.n)
		posts := []int32{int32(a)}
		for len(posts) < churnListLen {
			p := int32(e.n + r.intn(e.extra))
			if !slices.Contains(posts, p) {
				posts = append(posts, p)
			}
		}
		muts[j] = serve.Mutation{Op: "set_preferences", Applicant: a, Posts: posts}
	}
	body, err := json.Marshal(map[string][]serve.Mutation{"mutations": muts})
	if err != nil {
		return err
	}
	// The mutation request outlives the op's deadline: a batch the server
	// applied must reach the mirror, or the final check would fail a run
	// whose only fault was a slow op.
	status, err := e.c.do(context.WithoutCancel(ctx), ot, requestID(i, 0), http.MethodPost, "/v1/sessions/"+s.id+"/mutations", "application/json", body, buf)
	if err != nil {
		return err
	}
	if err := expect(status, http.StatusOK, "mutate", buf); err != nil {
		return err
	}
	var applied struct {
		Session serve.SessionInfo `json:"session"`
	}
	if err := json.Unmarshal(buf.Bytes(), &applied); err != nil {
		return incorrect("session %s: undecodable mutation response: %v", s.id, err)
	}
	s.mu.Lock()
	s.batches = append(s.batches, appliedBatch{epoch: applied.Session.Epoch, muts: muts})
	s.mu.Unlock()

	got, err := e.solve(ctx, ot, requestID(i, 1), s, ot != nil, buf)
	if err != nil {
		return err
	}
	if got.Epoch < applied.Session.Epoch {
		return incorrect("session %s: solve at epoch %d after mutations reached %d", s.id, got.Epoch, applied.Session.Epoch)
	}
	if got.Trace != nil {
		ot.t.addSolve(got.Trace)
	}
	return nil
}

// churnUpload uploads a fresh instance, checks that its id is the
// client-computed fingerprint, and evicts it again so the registry stays
// bounded.
func (e *sessionEnv) churnUpload(ctx context.Context, ot *opTrace, i int64, u *churnUpload, buf *bytes.Buffer) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, err := uploadBody(ctx, e.c, ot, requestID(i, 0), u.body, u.id, buf); err != nil {
		return err
	}
	status, err := e.c.do(ctx, ot, requestID(i, 1), http.MethodDelete, "/v1/instances/"+u.id, "", nil, buf)
	if err != nil {
		return err
	}
	return expect(status, http.StatusOK, "evict", buf)
}

// finish replays every session's mutation batches onto its mirror in the
// order the server applied them and compares a fresh library solve of the
// mirror with the session's current result.
func (e *sessionEnv) finish(ctx context.Context) error {
	ref := popmatch.NewSolver(popmatch.Options{Workers: 1})
	defer ref.Close()
	buf := new(bytes.Buffer)
	for k, s := range e.sessions {
		s.mu.Lock()
		batches := s.batches
		s.mu.Unlock()
		sort.Slice(batches, func(a, b int) bool { return batches[a].epoch < batches[b].epoch })
		for j, b := range batches {
			if want := uint64((j + 1) * rowsPerBatch); b.epoch != want {
				return incorrect("session %s: batch %d left epoch %d, want %d", s.id, j, b.epoch, want)
			}
			for _, m := range b.muts {
				if err := s.mirror.SetPreferences(m.Applicant, m.Posts, nil); err != nil {
					return err
				}
			}
		}
		want, err := ref.SolveRequest(ctx, s.mirror, popmatch.Request{Mode: popmatch.ModePopular})
		if err != nil {
			return err
		}
		if _, err := e.solve(ctx, nil, "final."+strconv.Itoa(k), s, false, buf); err != nil {
			return err
		}
		var got struct {
			PostOf []int32 `json:"post_of"`
		}
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			return err
		}
		if !want.Exists || !slices.Equal(got.PostOf, want.Matching.PostOf) {
			return incorrect("session %s: final matching differs from a fresh solve of the mirror", s.id)
		}
	}
	return nil
}

// replay times the two ingest steps of an upload outside the server, twice
// on each of the same bodies: binary decode and fingerprinting.
func (e *sessionEnv) replay() (decode, fingerprint []float64, err error) {
	for range 2 {
		for _, u := range e.uploads {
			t0 := time.Now()
			ins, err := onesided.DecodeBinary(u.body)
			if err != nil {
				return nil, nil, err
			}
			t1 := time.Now()
			if fp := ins.Fingerprint(); fp != u.id {
				return nil, nil, incorrect("replayed fingerprint %s, want %s", fp, u.id)
			}
			decode = append(decode, ms(t1.Sub(t0)))
			fingerprint = append(fingerprint, ms(time.Since(t1)))
		}
	}
	return decode, fingerprint, nil
}

func (e *sessionEnv) stack() ([]*serve.Server, *shard.Router) {
	return []*serve.Server{e.srv}, nil
}

func (e *sessionEnv) close() {
	e.c.close()
	e.ts.Close()
	e.srv.Close()
}
