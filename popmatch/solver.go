package popmatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// ErrSolverClosed is returned by every Solver method invoked after (or
// concurrently with) Close. Closing a Solver is an orderly shutdown: calls
// already executing run to completion, later calls fail with this error, and
// nothing panics or deadlocks — the contract a long-lived server needs when
// tearing down while requests are still arriving.
var ErrSolverClosed = errors.New("popmatch: solver is closed")

// Solver is a reusable handle over a persistent execution context: a worker
// pool whose goroutines outlive individual solves and a set of scratch
// arenas recycled between solves. Construct with NewSolver, release with
// Close.
//
// A Solver is safe for concurrent use: simultaneous solves share the worker
// pool and each checks out its own arena. Every method takes a
// context.Context; cancellation and deadlines are observed at bulk-
// synchronous round boundaries, so aborted solves return promptly without
// leaking goroutines.
//
// For a single throwaway computation the package-level SolveRequest builds
// and closes a Solver per call; a service handling many instances should
// hold one Solver for the process lifetime and call SolveRequest on it —
// repeated solves then reuse both workers and scratch memory.
type Solver struct {
	pool     *par.Pool
	ownPool  bool
	sessions sync.Pool

	// mu serializes Close against in-flight solves: every session checkout
	// holds the read side until the solve returns, and Close takes the write
	// side, so a dedicated pool is only torn down at quiescence and a closed
	// Solver fails checkouts with ErrSolverClosed instead of handing out a
	// dead pool.
	mu     sync.RWMutex
	closed bool
}

// session is one checked-out solve context: a scratch arena (which carries
// the core kernel and its prebound loop closures across solves) plus a
// reusable exec.Ctx re-pointed at the caller's context.Context per solve.
// Pooling the pair makes a repeat solve allocate nothing at the session
// layer.
type session struct {
	arena *exec.Arena
	cx    exec.Ctx
	// tracer is the solve-local tracer backing Request.Trace: a traced
	// solve re-points the session context here so its phase attribution is
	// exact even when concurrent solves share the Solver.
	tracer par.Tracer
}

// NewSolver returns a Solver configured by o. Workers == 0 shares the
// process-wide persistent pool; any other value provisions a dedicated pool
// owned (and eventually closed) by this Solver.
func NewSolver(o Options) *Solver {
	s := &Solver{}
	if o.Workers != 0 {
		s.pool = par.NewPool(o.Workers)
		s.ownPool = true
	} else {
		s.pool = par.Shared()
	}
	s.sessions.New = func() any { return &session{arena: exec.NewArena()} }
	return s
}

// Close releases the Solver's resources: it waits for in-flight solves to
// complete, then stops a dedicated pool's worker goroutines (the shared pool
// is left running). Idempotent and safe to call concurrently with solves —
// calls that lose the race fail with ErrSolverClosed rather than panicking.
func (s *Solver) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.ownPool {
		s.pool.Close()
	}
}

// session checks out a pooled session and assembles the per-solve execution
// context; the caller returns it with putSession. On success the Solver's
// read lock is held until putSession, keeping Close from reclaiming the pool
// under a running solve.
func (s *Solver) session(ctx context.Context) (core.Options, *session, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return core.Options{}, nil, ErrSolverClosed
	}
	sess := s.sessions.Get().(*session)
	sess.cx.Reset(exec.Config{Context: ctx, Pool: s.pool, Arena: sess.arena})
	return core.Options{Exec: &sess.cx}, sess, nil
}

// putSession drops the solve's context reference, recycles the session and
// releases the checkout obtained by session.
func (s *Solver) putSession(sess *session) {
	sess.cx.Reset(exec.Config{Pool: s.pool, Arena: sess.arena})
	s.sessions.Put(sess)
	s.mu.RUnlock()
}

// SolveRequest solves one Request, the Solver's one solve entry point. The
// mode picks the algorithm; instances constructed with a capacity vector
// route through the clone reduction automatically (reported in
// Result.Assignment), and the weighted modes reject capacitated instances
// rather than mis-solving them.
func (s *Solver) SolveRequest(ctx context.Context, ins *Instance, req Request) (Result, error) {
	var res Result
	if err := s.SolveRequestInto(ctx, ins, req, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// SolveRequestInto is SolveRequest with result reuse: the previous contents
// of *res — in particular its Matching buffers — are recycled into the new
// result where sizes permit, so a caller looping over solves of same-shaped
// instances reaches a (near-)zero-allocation steady state in every mode:
// the engine's kernels and their prebound loop closures persist on the
// pooled session, scratch comes from the session arena or the engine's
// pools, and the result matching is Reset in place. On return *res is
// overwritten in full; any Matching it previously pointed to must no longer
// be used by the caller. For capacitated instances the recycled matching
// backs the cloned-instance result while the folded Assignment is freshly
// allocated; unsolvable instances report Exists=false and drop the recycled
// buffers.
func (s *Solver) SolveRequestInto(ctx context.Context, ins *Instance, req Request, res *Result) error {
	opt, sess, err := s.session(ctx)
	if err != nil {
		return err
	}
	defer s.putSession(sess)
	var start time.Time
	if req.Trace != nil {
		start = s.beginTrace(ctx, sess)
	}
	into := res.Matching
	if into == nil {
		into = res.cloneMatching // a previous capacitated result's clone matching
	}
	out, err := core.SolveRequest(ins, core.Request{Mode: req.Mode, Weights: req.Weights, Into: into}, opt)
	if req.Trace != nil {
		endTrace(sess, req.Trace, start)
	}
	if err != nil {
		return err
	}
	*res = wrapOutcome(ins, out)
	return nil
}

// beginTrace re-points the checked-out session at its solve-local tracer and
// arms the phase clock; endTrace closes the last span and snapshots the
// counters into the caller's SolveTrace. Both are allocation-free so traced
// steady-state solves stay within the untraced allocation budget.
func (s *Solver) beginTrace(ctx context.Context, sess *session) time.Time {
	sess.tracer.Reset()
	sess.cx.Reset(exec.Config{Context: ctx, Pool: s.pool, Tracer: &sess.tracer, Arena: sess.arena})
	sess.tracer.BeginPhase(par.PhaseOther)
	return time.Now()
}

func endTrace(sess *session, t *SolveTrace, start time.Time) {
	sess.tracer.BeginPhase(par.PhaseOther) // close the final span
	t.fill(&sess.tracer, time.Since(start).Nanoseconds())
}

// requireUnit rejects capacitated instances on the surfaces that have no
// clone-reduction route; silently treating capacities as 1 would return
// wrong answers.
func requireUnit(ins *Instance, method string) error {
	if !ins.UnitCapacity() {
		return fmt.Errorf("popmatch: %s does not support capacitated instances; solve them in mode popular, maxcard, ties or tiesmax and check them with VerifyAssignment", method)
	}
	return nil
}

// Verify checks that m is popular (Theorem 1 characterization).
func (s *Solver) Verify(ctx context.Context, ins *Instance, m *Matching) error {
	if err := requireUnit(ins, "Verify"); err != nil {
		return err
	}
	opt, sess, err := s.session(ctx)
	if err != nil {
		return err
	}
	defer s.putSession(sess)
	return core.VerifyPopular(ins, m, opt)
}

// VerifyAssignment checks that a capacitated assignment is popular by
// lifting it to the cloned instance and running the exact Hungarian margin
// oracle (O(n³); verification, not a hot path). It also accepts
// unit-capacity instances.
func (s *Solver) VerifyAssignment(ctx context.Context, ins *Instance, as *Assignment) (err error) {
	opt, sess, err := s.session(ctx)
	if err != nil {
		return err
	}
	defer s.putSession(sess)
	defer exec.CatchCancel(&err)
	if err := as.Validate(ins); err != nil {
		return err
	}
	margin, err := onesided.UnpopularityMarginAssignmentCtx(opt.Exec, ins, as)
	if err != nil {
		return err
	}
	if margin > 0 {
		return fmt.Errorf("popmatch: assignment is not popular: challenger margin %d", margin)
	}
	return nil
}

// UnpopularityMargin returns the best vote margin any challenger matching
// achieves against m (≤ 0 iff m is popular). It runs the independent
// Hungarian-algorithm oracle, O(n³): a verification surface, not a hot
// path. The sweep runs under the Solver's execution context, so it is
// cancellable via ctx — the oracle usually dominates a verified run's cost.
// m.PostOf is read as a per-applicant post vector (-1 = unmatched) and must
// be a matching of ins: one entry per applicant, each post on its
// applicant's list (or its own last resort) and within capacity. Anything
// else is an error. On a capacitated instance the challengers range over
// capacitated assignments.
func (s *Solver) UnpopularityMargin(ctx context.Context, ins *Instance, m *Matching) (margin int, err error) {
	as, err := onesided.AssignmentFromPostOf(ins, m.PostOf)
	if err != nil {
		return 0, err
	}
	opt, sess, err := s.session(ctx)
	if err != nil {
		return 0, err
	}
	defer s.putSession(sess)
	defer exec.CatchCancel(&err)
	if !ins.UnitCapacity() {
		return onesided.UnpopularityMarginAssignmentCtx(opt.Exec, ins, as)
	}
	return onesided.UnpopularityMarginCtx(opt.Exec, ins, m), nil
}

// MaxBipartiteMatching computes a maximum-cardinality matching of the
// bipartite graph given by adj (adj[l] lists the right neighbors of left
// vertex l; nRight right vertices) via Theorem 11's reduction: every edge
// becomes a rank-1 preference and the popular-matching black box is invoked.
// Returns the right partner of each left vertex (-1 unmatched) and the size.
func (s *Solver) MaxBipartiteMatching(ctx context.Context, adj [][]int32, nRight int) ([]int32, int, error) {
	opt, sess, err := s.session(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer s.putSession(sess)
	g := bipartite.New(len(adj), nRight)
	for l, outs := range adj {
		for _, r := range outs {
			g.AddEdge(int32(l), r)
		}
	}
	return core.MaxMatchingViaPopular(g, opt)
}
