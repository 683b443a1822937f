package serve

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/onesided"
	"repro/popmatch"
)

// The HTTP/JSON surface of a Server.
//
//	POST   /v1/instances       upload an instance (text or binary body) → info
//	GET    /v1/instances       list registered instances
//	GET    /v1/instances/{id}  one instance's info; with
//	                           Accept: application/x-popmatch-binary, the
//	                           instance's .pmb binary encoding instead
//	DELETE /v1/instances/{id}  evict an instance (and its cached results)
//	POST   /v1/solve           {"instance": id, "mode": m} → solution
//	POST   /v1/verify          {"instance": id, "post_of": [...]} → verdict
//	GET    /v1/stats           counter snapshot
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness
//
// A solve request may set "trace": true to receive a per-phase cost
// breakdown of its solve in the response's "trace" field (rounds, work and
// wall time per algorithm phase, plus barrier-wait time). Traced requests
// bypass the result cache and never share a solve — the trace always
// reflects a dedicated kernel solve of exactly that request.
//
// Every response carries an X-Request-Id header (echoing the caller's, or a
// freshly minted id) and error bodies repeat it as "request_id", so a failed
// request is greppable in the structured access log (Config.Logger).
//
// Delta sessions (mutable forks of a registered instance, re-matched
// incrementally — see Session):
//
//	POST   /v1/sessions                 {"instance": id} → session info
//	GET    /v1/sessions                 list live sessions
//	GET    /v1/sessions/{id}            one session's info
//	DELETE /v1/sessions/{id}            end a session
//	POST   /v1/sessions/{id}/mutations  {"mutations": [...]} → info + results
//	POST   /v1/sessions/{id}/solve      {"mode": m} → solution
//
// Uploads accept both instance formats, negotiated by Content-Type:
// text/plain parses the text format, application/x-popmatch-binary decodes
// the binary format, and generic or absent types (application/octet-stream,
// application/x-www-form-urlencoded, none) are sniffed by the binary magic.
// Any other Content-Type is a 415 listing the supported types. Either way
// the same content yields the same instance id.
//
// Instance ids are content fingerprints (Instance.Fingerprint), so uploads
// are idempotent and solve results are cacheable across re-uploads. In
// post_of vectors, entries >= the instance's post count denote the
// applicant's virtual last resort (id = posts + applicant), and -1 means
// unmatched; solve responses use the same convention, so a solution can be
// fed back to /v1/verify unchanged.
//
// Solve modes (the shared engine enum; unknown names are a 400):
//
//	popular      any popular matching (strict lists; capacitated instances
//	             route through the clone reduction)
//	maxcard      maximum-cardinality popular matching
//	ties         §V ties solver (valid for strict instances too); its
//	             popular matching has maximum cardinality
//	tiesmax      the same solver as ties
//	maxweight    maximum-weight popular matching under the built-in
//	             cardinality weights (strict unit instances only)
//	minweight    minimizing twin of maxweight
//	rankmaximal  rank-maximal popular matching ("rankmax" accepted)
//	fair         fair popular matching
//
// Mode/instance mismatches (popular on tied lists, weighted modes on
// capacitated instances) are the request's fault: 422.

// instanceInfo is the wire form of a Snapshot.
type instanceInfo struct {
	ID          string `json:"id"`
	Applicants  int    `json:"applicants"`
	Posts       int    `json:"posts"`
	Edges       int    `json:"edges"`
	Strict      bool   `json:"strict"`
	Capacitated bool   `json:"capacitated"`
	Created     bool   `json:"created,omitempty"` // upload response only
}

type solveRequest struct {
	Instance string `json:"instance"`
	Mode     string `json:"mode"`
	// Trace requests a per-phase cost breakdown of the solve (see the
	// package comment); traced requests bypass the cache and never share a
	// solve.
	Trace bool `json:"trace,omitempty"`
}

type solveResponse struct {
	Instance   string               `json:"instance"`
	Mode       string               `json:"mode"`
	Cached     bool                 `json:"cached"`
	Exists     bool                 `json:"exists"`
	Size       int                  `json:"size"`
	PeelRounds int                  `json:"peel_rounds"`
	PostOf     []int32              `json:"post_of,omitempty"`
	AssignedTo [][]int32            `json:"assigned_to,omitempty"`
	Trace      *popmatch.SolveTrace `json:"trace,omitempty"`
}

type sessionCreateRequest struct {
	Instance string `json:"instance"`
}

type sessionMutateRequest struct {
	Mutations []Mutation `json:"mutations"`
}

type sessionMutateResponse struct {
	Session SessionInfo      `json:"session"`
	Applied []MutationResult `json:"applied"`
}

type sessionSolveRequest struct {
	Mode  string `json:"mode"`
	Trace bool   `json:"trace,omitempty"`
}

// sessionSolveResponse extends the solve wire form with the session epoch the
// answer is valid for and whether the warm incremental path produced it.
type sessionSolveResponse struct {
	Session    string               `json:"session"`
	Mode       string               `json:"mode"`
	Epoch      uint64               `json:"epoch"`
	Cached     bool                 `json:"cached"`
	Warm       bool                 `json:"warm"`
	Exists     bool                 `json:"exists"`
	Size       int                  `json:"size"`
	PeelRounds int                  `json:"peel_rounds"`
	PostOf     []int32              `json:"post_of,omitempty"`
	AssignedTo [][]int32            `json:"assigned_to,omitempty"`
	Trace      *popmatch.SolveTrace `json:"trace,omitempty"`
}

type verifyRequest struct {
	Instance string  `json:"instance"`
	PostOf   []int32 `json:"post_of"`
}

type verifyResponse struct {
	Instance string `json:"instance"`
	Popular  bool   `json:"popular"`
	Margin   int    `json:"margin"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID repeats the response's X-Request-Id header so an error body
	// alone suffices to find the request in the access log.
	RequestID string `json:"request_id,omitempty"`
}

// maxInstanceBody bounds an upload (the text format is ~6 bytes/edge, so
// 64 MiB admits instances with ~10^7 edges while keeping a stray upload
// from exhausting memory). Enforced with http.MaxBytesReader so an
// oversized body is rejected outright — a silent LimitReader truncation
// could register a valid-looking prefix of the intended instance.
const maxInstanceBody = 64 << 20

// ContentTypeBinary is the media type of the binary instance format on the
// upload endpoint. Text uploads use text/plain; requests without a usable
// Content-Type (empty, octet-stream, or the curl --data default) are
// sniffed by the binary magic. Anything else is a 415.
const ContentTypeBinary = "application/x-popmatch-binary"

// uploadContentTypes is advertised in 415 responses.
const uploadContentTypes = "text/plain, " + ContentTypeBinary +
	", application/octet-stream (sniffed by magic)"

// errUnsupportedMediaType marks a Content-Type the upload endpoint does not
// speak; statusOf maps it to 415.
type errUnsupportedMediaType struct{ ct string }

func (e errUnsupportedMediaType) Error() string {
	return fmt.Sprintf("unsupported Content-Type %q (supported: %s)", e.ct, uploadContentTypes)
}

// acceptsBinary reports whether an Accept header asks for the binary
// instance format: any listed media range equal to ContentTypeBinary
// (parameters such as q-values ignored). The JSON info response stays the
// default for absent, */* and application/* ranges — binary is opt-in by
// exact type.
func acceptsBinary(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		if strings.EqualFold(strings.TrimSpace(part), ContentTypeBinary) {
			return true
		}
	}
	return false
}

// readInstanceBody parses an upload body according to its Content-Type,
// reporting which wire format it used. Explicit types dispatch directly;
// generic or absent types are sniffed: binary encodings start with the
// 8-byte magic (first byte non-ASCII), text instances never do.
func readInstanceBody(w http.ResponseWriter, r *http.Request) (ins *onesided.Instance, binary bool, err error) {
	body := http.MaxBytesReader(w, r.Body, maxInstanceBody)
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i] // drop parameters such as charset
	}
	switch strings.ToLower(strings.TrimSpace(ct)) {
	case "text/plain":
		ins, err = onesided.Read(body)
		return ins, false, err
	case ContentTypeBinary:
		ins, err = onesided.ReadBinary(body)
		return ins, true, err
	case "", "application/octet-stream", "application/x-www-form-urlencoded":
		br := bufio.NewReaderSize(body, 1<<16)
		if prefix, perr := br.Peek(len(onesided.BinaryMagic)); perr == nil && onesided.LooksBinary(prefix) {
			ins, err = onesided.ReadBinary(br)
			return ins, true, err
		}
		ins, err = onesided.Read(br)
		return ins, false, err
	default:
		return nil, false, errUnsupportedMediaType{ct: ct}
	}
}

// NewHandler returns the HTTP handler serving s.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WriteMetrics(w)
	})
	mux.HandleFunc("POST /v1/instances", func(w http.ResponseWriter, r *http.Request) {
		ins, isBinary, err := readInstanceBody(w, r)
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			var unsupported errUnsupportedMediaType
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			} else if errors.As(err, &unsupported) {
				status = http.StatusUnsupportedMediaType
			}
			writeError(w, r, status, err)
			return
		}
		snap, created, err := s.Upload(ins)
		if err != nil {
			writeError(w, r, statusOf(err), err)
			return
		}
		if isBinary {
			s.stats.UploadsBinary.Add(1)
		} else {
			s.stats.UploadsText.Add(1)
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		info := infoOf(snap)
		info.Created = created
		writeJSON(w, status, info)
	})
	mux.HandleFunc("GET /v1/instances", func(w http.ResponseWriter, r *http.Request) {
		infos := []instanceInfo{}
		for _, snap := range s.Instances() {
			infos = append(infos, infoOf(snap))
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("GET /v1/instances/{id}", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := s.Instance(r.PathValue("id"))
		if !ok {
			writeError(w, r, http.StatusNotFound, ErrUnknownInstance)
			return
		}
		if acceptsBinary(r.Header.Get("Accept")) {
			// Binary download: the instance's canonical .pmb encoding, the
			// same bytes a binary upload of this content would carry — a
			// downloaded instance re-uploads (anywhere) to the same id.
			w.Header().Set("Content-Type", ContentTypeBinary)
			_ = onesided.WriteBinary(w, snap.Ins)
			return
		}
		writeJSON(w, http.StatusOK, infoOf(snap))
	})
	mux.HandleFunc("DELETE /v1/instances/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Evict(r.PathValue("id")) {
			writeError(w, r, http.StatusNotFound, ErrUnknownInstance)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "evicted"})
	})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		var req solveRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		mode, err := popmatch.ParseMode(req.Mode)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		resp := solveResponse{Instance: req.Instance, Mode: mode.String()}
		var out *Outcome
		if req.Trace {
			resp.Trace = new(popmatch.SolveTrace)
			out, err = s.SolveTraced(r.Context(), req.Instance, mode, resp.Trace)
		} else {
			out, resp.Cached, err = s.Solve(r.Context(), req.Instance, mode)
		}
		if err != nil {
			writeError(w, r, statusOf(err), err)
			return
		}
		resp.Exists = out.Exists
		resp.Size = out.Size
		resp.PeelRounds = out.PeelRounds
		resp.PostOf = out.PostOf
		resp.AssignedTo = out.AssignedTo
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req sessionCreateRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		info, err := s.CreateSession(req.Instance)
		if err != nil {
			writeError(w, r, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		infos := s.Sessions()
		if infos == nil {
			infos = []SessionInfo{}
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := s.Session(r.PathValue("id"))
		if !ok {
			writeError(w, r, http.StatusNotFound, ErrUnknownSession)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.DeleteSession(r.PathValue("id")) {
			writeError(w, r, http.StatusNotFound, ErrUnknownSession)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/mutations", func(w http.ResponseWriter, r *http.Request) {
		var req sessionMutateRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		info, applied, err := s.MutateSession(r.PathValue("id"), req.Mutations)
		if err != nil {
			// A failed batch may have partially applied; the 422 body still
			// carries what stuck so the client can resynchronize, but the
			// top-level error keeps the failure unmissable.
			writeError(w, r, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, sessionMutateResponse{Session: info, Applied: applied})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/solve", func(w http.ResponseWriter, r *http.Request) {
		var req sessionSolveRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		mode, err := popmatch.ParseMode(req.Mode)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		id := r.PathValue("id")
		resp := sessionSolveResponse{Session: id, Mode: mode.String()}
		var out *Outcome
		var meta SessionSolveMeta
		if req.Trace {
			resp.Trace = new(popmatch.SolveTrace)
			out, meta, err = s.SolveSessionTraced(r.Context(), id, mode, resp.Trace)
		} else {
			out, meta, err = s.SolveSession(r.Context(), id, mode)
		}
		if err != nil {
			writeError(w, r, statusOf(err), err)
			return
		}
		resp.Epoch = meta.Epoch
		resp.Cached = meta.Cached
		resp.Warm = meta.Warm
		resp.Exists = out.Exists
		resp.Size = out.Size
		resp.PeelRounds = out.PeelRounds
		resp.PostOf = out.PostOf
		resp.AssignedTo = out.AssignedTo
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req verifyRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		popular, margin, err := s.Verify(r.Context(), req.Instance, req.PostOf)
		if err != nil {
			writeError(w, r, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, verifyResponse{Instance: req.Instance, Popular: popular, Margin: margin})
	})
	return withObservability(s.cfg.Logger, mux)
}

// ctxKeyRequestID keys the per-request id in the request context.
type ctxKeyRequestID struct{}

// requestIDOf returns the request's id ("" for a request that did not pass
// through the handler middleware).
func requestIDOf(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID{}).(string)
	return id
}

// newRequestID mints a 16-hex-char random request id.
func newRequestID() string {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(raw[:])
}

// statusRecorder captures the response status for access logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withObservability wraps h with request-id assignment and structured access
// logging. Every request gets an id — the caller's X-Request-Id if present,
// else a freshly minted one — echoed in the X-Request-Id response header,
// carried in the request context for error bodies, and, when logger is
// non-nil, attached to one info-level access line per request.
func withObservability(logger *slog.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, id))
		if logger == nil {
			h.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r)
		logger.Info("request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", time.Since(start)),
		)
	})
}

func infoOf(snap *Snapshot) instanceInfo {
	return instanceInfo{
		ID:          snap.ID,
		Applicants:  snap.Applicants,
		Posts:       snap.Posts,
		Edges:       snap.Edges,
		Strict:      snap.Strict,
		Capacitated: snap.Capacitated,
	}
}

// statusOf maps service errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownInstance), errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrRegistryFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The exec layer surfaces the request context's own error, so a
		// client-side deadline and the server-side SolveTimeout both land
		// here.
		return http.StatusGatewayTimeout
	default:
		// Solver-level rejections (mode unsupported for the instance,
		// structurally invalid assignments, ...) are the request's fault.
		return http.StatusUnprocessableEntity
	}
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxInstanceBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: requestIDOf(r)})
}
