// Package serve is the matching-as-a-service request layer: it answers
// concurrent solve requests against registered instances from an LRU
// result cache, or with one shared solve per (instance, mode) on a shared
// popmatch.Solver, under admission control.
//
// The pieces, front to back:
//
//   - Registry: fingerprint-keyed immutable instance snapshots. Uploading is
//     idempotent by content; every solve of a snapshot shares its cached CSR
//     form.
//   - resultCache: an LRU keyed by (instance fingerprint, mode), or by
//     (session, mode) with the line stamped by the session's epoch. A
//     repeat query is answered without touching the kernel at all.
//   - flights: a cache miss starts a flight, one goroutine that takes one of
//     GOMAXPROCS solve slots and runs the kernel. Requests for the same
//     (instance, mode) that arrive while it runs wait for the same result;
//     the solve runs while any of them still waits, and the last one to
//     leave cancels it.
//   - admission control: a request that would leave more than MaxQueue
//     flights waiting for a solve slot is refused (ErrOverloaded) instead
//     of building unbounded backlog, and every request carries its caller's
//     context — cancellation and deadlines propagate through exec.Ctx to
//     the solver's round boundaries.
//
// The HTTP surface over this layer lives in http.go; cmd/popserved is the
// daemon wrapping it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/onesided"
	"repro/popmatch"
)

// ErrOverloaded is returned when admission control refuses a request
// because too many solves already wait for a slot.
var ErrOverloaded = errors.New("server overloaded, too many solves waiting")

// ErrServerClosed is returned for requests submitted after Close.
var ErrServerClosed = errors.New("server is closed")

// Outcome is an immutable solve result, shareable between the requests of
// one flight and cache hits. PostOf uses the instance's raw post ids: entries
// >= Posts are virtual last resorts (id Posts+a), so outcomes round-trip
// losslessly through the verify surface.
type Outcome struct {
	Exists     bool
	Size       int
	PeelRounds int
	PostOf     []int32
	// AssignedTo holds the per-post applicant rosters of a capacitated
	// result (index = post id); nil for unit instances.
	AssignedTo [][]int32
}

// Config sizes a Server. Zero values select the documented defaults; use a
// negative value to disable a knob where that is meaningful.
type Config struct {
	// Workers sizes the shared solver pool (0 = the process-wide pool).
	Workers int
	// CacheSize is the result cache capacity in entries (default 1024;
	// negative = disable caching).
	CacheSize int
	// MaxQueue bounds the flights waiting for a solve slot; a request that
	// would start one more gets ErrOverloaded (default 1024; negative =
	// minimal queueing, 1). It is never 0: with every slot busy, a bound of
	// 0 would refuse each new solve, however briefly the slots stay busy.
	MaxQueue int
	// MaxInstances bounds the registry (default 1024; negative = unbounded).
	MaxInstances int
	// MaxSessions bounds concurrently live delta sessions (default 256;
	// negative = unbounded).
	MaxSessions int
	// SolveTimeout caps the server-side duration of any single solve
	// (default 0 = bounded only by the request's own context).
	SolveTimeout time.Duration
	// StoreDir, when non-empty, persists the registry to disk: every upload
	// is written as a binary-format file named by its fingerprint, and Open
	// mmaps the directory back on boot so a restart re-serves every instance
	// without re-parsing. Only honored by Open (New builds a memory-only
	// server).
	StoreDir string
	// Logger, when non-nil, receives one structured access-log line per HTTP
	// request (method, path, status, duration, request id). Nil logs nothing
	// — the library surface stays silent by default; cmd/popserved wires its
	// -log-level handler here.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		} else if *v < 0 {
			*v = 0
		}
	}
	def(&c.CacheSize, 1024)
	def(&c.MaxQueue, 1024)
	if c.MaxQueue == 0 {
		c.MaxQueue = 1
	}
	def(&c.MaxInstances, 1024)
	def(&c.MaxSessions, 256)
	return c
}

// Server is the serving facade: registry + cache + flights over one shared
// Solver. Construct with New, release with Close.
type Server struct {
	cfg      Config
	registry *Registry
	cache    *resultCache
	stats    Stats
	metrics  *serverMetrics
	solver   *popmatch.Solver
	flights  flightTable
	sessions sessionTable
	store    *diskStore // nil unless Open was given a StoreDir
	started  time.Time
}

// New returns a running Server configured by cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.MaxInstances),
		cache:    newResultCache(cfg.CacheSize),
		solver:   popmatch.NewSolver(popmatch.Options{Workers: cfg.Workers}),
		flights:  newFlightTable(),
		started:  time.Now(),
	}
	s.sessions.max = cfg.MaxSessions
	s.metrics = newServerMetrics(s)
	return s
}

// Open is New with persistence: when cfg.StoreDir is set, every persisted
// instance in the directory is mmap'd and re-registered before the server
// accepts traffic (their CSR arrays alias the read-only pages — no text
// parse, no copy), and subsequent uploads are persisted there. The mappings
// stay live until Close. With an empty StoreDir, Open is exactly New.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.StoreDir == "" {
		return s, nil
	}
	store, err := openDiskStore(cfg.StoreDir)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.store = store
	loaded, err := store.loadAll()
	if err != nil {
		s.Close()
		return nil, err
	}
	for _, m := range loaded {
		if _, _, err := s.registry.Add(m.Ins); err != nil {
			s.Close()
			return nil, fmt.Errorf("restoring instance from store: %w", err)
		}
		s.stats.StoreLoaded.Add(1)
	}
	return s, nil
}

// Close shuts the server down in order: admission stops, flights still
// waiting for a solve slot fail with ErrServerClosed, running solves finish,
// the solver releases its pool, and only then does the store unmap its
// pages (no solve can still be indexing a mapped instance). Idempotent.
func (s *Server) Close() {
	s.flights.close()
	s.solver.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// Upload registers an instance (see Registry.Add) and, on a store-backed
// server, persists newly created snapshots. A snapshot that cannot be
// persisted is not registered: the upload fails whole, rather than
// succeeding in memory and silently not surviving a restart.
func (s *Server) Upload(ins *onesided.Instance) (*Snapshot, bool, error) {
	snap, created, err := s.registry.Add(ins)
	if err != nil || !created || s.store == nil {
		return snap, created, err
	}
	if perr := s.store.persist(snap.Ins, snap.ID); perr != nil {
		s.registry.Evict(snap.ID)
		return nil, false, fmt.Errorf("persisting instance: %w", perr)
	}
	return snap, true, nil
}

// Instances lists the registered snapshots in upload order.
func (s *Server) Instances() []*Snapshot { return s.registry.List() }

// Instance returns one registered snapshot.
func (s *Server) Instance(id string) (*Snapshot, bool) { return s.registry.Get(id) }

// Evict removes an instance, its cached results, and (on a store-backed
// server) its persisted file, so it does not reappear on restart. The
// store's mapping, if the instance was mmap'd in, stays live until Close —
// an already-admitted solve may still be indexing it.
func (s *Server) Evict(id string) bool {
	ok := s.registry.Evict(id)
	if ok {
		s.cache.EvictInstance(id)
		if s.store != nil {
			_ = s.store.remove(id)
		}
	}
	return ok
}

// Stats returns a snapshot of the server counters plus the registry and
// cache gauges, built in one pass: every counter is loaded exactly once
// (see Stats.snapshotInto), so no key can report a staler read than a key
// written before it. The key set is the /v1/stats wire contract.
func (s *Server) Stats() map[string]int64 {
	m := make(map[string]int64, 20)
	s.stats.snapshotInto(m)
	m["instances"] = int64(s.registry.Len())
	m["sessions"] = int64(s.sessions.len())
	m["cache_entries"] = int64(s.cache.Len())
	m["uptime_seconds"] = s.uptimeSeconds()
	return m
}

// uptimeSeconds is the shared gauge body of the stats snapshot and the
// popserved_uptime_seconds series.
func (s *Server) uptimeSeconds() int64 {
	return int64(time.Since(s.started) / time.Second)
}

// Solve answers a solve request for a registered instance: from the result
// cache when possible, otherwise from the flight solving (instance, mode),
// started by this request if none is. The returned bool reports a cache
// hit. A request whose context ends stops waiting; the shared solve stops
// once no request waits for it. cfg.SolveTimeout additionally caps each
// request's wait server-side.
func (s *Server) Solve(ctx context.Context, id string, mode popmatch.Mode) (*Outcome, bool, error) {
	snap, ok := s.registry.Get(id)
	if !ok {
		return nil, false, ErrUnknownInstance
	}
	start := time.Now()
	defer func() { s.metrics.reqSolve.Observe(time.Since(start).Nanoseconds()) }()
	s.stats.Requests.Add(1)
	key := cacheKey{id: snap.ID, mode: mode}
	if out, hit := s.cache.Get(key); hit {
		s.stats.CacheHits.Add(1)
		return out, true, nil
	}
	s.stats.CacheMisses.Add(1)
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	// A request that has already given up must not start a solve.
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	out, err := s.solveShared(ctx, snap, mode)
	return out, false, err
}

// Verify checks a caller-supplied assignment of a registered instance for
// popularity via the exact margin oracle (O(n³) Hungarian — a verification
// surface, not a hot path). postOf is the per-applicant post vector in the
// instance's raw ids (>= Posts = that applicant's last resort, -1 =
// unmatched). It returns the challenger margin (positive = not popular); a
// structurally invalid assignment returns an error.
func (s *Server) Verify(ctx context.Context, id string, postOf []int32) (popular bool, margin int, err error) {
	snap, ok := s.registry.Get(id)
	if !ok {
		return false, 0, ErrUnknownInstance
	}
	if len(postOf) != snap.Applicants {
		return false, 0, fmt.Errorf("post_of has %d entries for %d applicants", len(postOf), snap.Applicants)
	}
	// The oracle validates the assignment (capacities, list membership)
	// before its sweep.
	margin, err = s.solver.UnpopularityMargin(ctx, snap.Ins, &onesided.Matching{PostOf: postOf})
	if err != nil {
		return false, 0, err
	}
	return margin <= 0, margin, nil
}

// outcomeOf freezes a solver result into an immutable Outcome (buffers
// copied: results may share storage with solver-recycled matchings, and
// cached outcomes outlive the solve that produced them). posts is the
// instance's post count — it sizes capacitated rosters and cannot be read
// off the result itself.
func outcomeOf(posts int, res popmatch.Result) *Outcome {
	out := &Outcome{Exists: res.Exists, Size: res.Size, PeelRounds: res.PeelRounds}
	if !res.Exists {
		return out
	}
	if res.Assignment != nil {
		out.PostOf = append([]int32(nil), res.Assignment.PostOf...)
		out.AssignedTo = make([][]int32, posts)
		for p := range out.AssignedTo {
			roster := res.Assignment.AssignedTo(int32(p))
			out.AssignedTo[p] = append(make([]int32, 0, len(roster)), roster...)
		}
	} else if res.Matching != nil {
		out.PostOf = append([]int32(nil), res.Matching.PostOf...)
	}
	return out
}
