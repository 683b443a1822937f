package core

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// The unified solve engine: one mode-dispatched entry point over every
// algorithm in this package, with all scratch state — the strict-path kernel
// of kernel.go, the §V ties kernel of tieskernel.go, and the big.Int pool of
// the rank-maximal/fair weight arithmetic — owned by one Engine that lives
// on the solve session's arena. Callers construct a Request instead of
// picking an entry point; the historical entry points (Popular, SolveTies,
// MaxCardinality, Optimize, ...) remain as thin wrappers.

// Request describes one solve: the mode, the optional weight function for
// the weighted modes, and an optional recycled result matching.
type Request struct {
	// Mode selects the algorithm; see the Mode constants.
	Mode Mode
	// Weights scores applicant-post pairs for ModeMaxWeight/ModeMinWeight;
	// nil selects the built-in cardinality weights (1 per real post, 0 per
	// last resort). Ignored by every other mode.
	Weights WeightFn
	// Into, when non-nil, is Reset and used as the result matching, so a
	// caller looping over same-shaped solves recycles the result buffers
	// (see PopularInto). On Exists=false or error its contents are
	// unspecified. For capacitated instances it recycles the cloned-instance
	// matching; the folded Assignment is always freshly allocated.
	Into *onesided.Matching
}

// Outcome is the unified result of an engine solve. Which fields are
// populated depends on the mode and the instance:
//
//   - Matching is the unit matching (for capacitated instances, the
//     cloned-instance matching it was folded from); nil when Exists is false.
//   - Assignment is the many-to-one result, set exactly when the instance
//     carries a capacity vector.
//   - Peel/Promotions report Algorithm 1/2 statistics when the strict kernel
//     ran (Peel.Valid false otherwise); Switch reports the §IV switching
//     optimizer's work for the optimal modes.
//   - Rank1Size/MaxRank1 report the §V lexicographic quantities when the
//     ties solver ran.
type Outcome struct {
	Matching   *onesided.Matching
	Assignment *onesided.Assignment
	Exists     bool
	Peel       PeelStats
	Promotions int
	Switch     SwitchStats
	// Rank1Size is |M ∩ E1| and MaxRank1 the maximum matching size of the
	// rank-one graph G1 (ties path only; zero otherwise).
	Rank1Size, MaxRank1 int
}

// Engine is the mode-dispatched solve engine. One Engine bundles every
// arena-resident kernel, so repeated solves through the same Engine reuse
// scratch, prebound loop closures and pooled big.Ints across all modes. An
// Engine is not safe for concurrent use; popmatch.Solver keeps one per
// pooled session (via the session arena's Aux slot) and checks sessions out
// per solve.
type Engine struct {
	k    kernel
	ties tiesKernel
	bigs bigPool
	pow  powerCache
}

// NewEngine returns an Engine with its loop closures bound. Most callers
// never construct one: SolveRequest fetches the session engine from the
// execution context's arena automatically.
func NewEngine() *Engine {
	e := &Engine{}
	e.k.init()
	e.ties.init()
	return e
}

// engineFor returns the session's engine: the one cached on the execution
// context's arena when there is one (installing it on first use), or a fresh
// engine for arena-less one-shot contexts.
func engineFor(cx *exec.Ctx) *Engine {
	ar := cx.Arena()
	if ar == nil {
		return NewEngine()
	}
	if e, ok := ar.Aux.(*Engine); ok {
		return e
	}
	e := NewEngine()
	ar.Aux = e
	return e
}

// SolveRequest solves one Request on the session engine of opt's execution
// context. It is the single entry point behind every popmatch.Solver method,
// the serving layer and the CLIs.
func SolveRequest(ins *onesided.Instance, req Request, opt Options) (out Outcome, err error) {
	defer exec.CatchCancel(&err)
	cx := opt.exec()
	return engineFor(cx).solve(cx, ins, req)
}

// Solve runs one Request on this Engine (rather than the context's session
// engine); see SolveRequest.
func (e *Engine) Solve(ins *onesided.Instance, req Request, opt Options) (out Outcome, err error) {
	defer exec.CatchCancel(&err)
	return e.solve(opt.exec(), ins, req)
}

// solve dispatches a request. Instances carrying a capacity vector route
// through the clone reduction (matching the historical popmatch.Solver
// routing); unit instances dispatch on mode and strictness.
func (e *Engine) solve(cx *exec.Ctx, ins *onesided.Instance, req Request) (Outcome, error) {
	if !req.Mode.Valid() {
		return Outcome{}, fmt.Errorf("core: invalid mode %s", req.Mode)
	}
	switch req.Mode {
	case ModePopular, ModeMaxCard, ModeTies, ModeTiesMax:
		maxcard := req.Mode == ModeMaxCard || req.Mode == ModeTiesMax
		if ins.Capacities != nil {
			// Instances constructed with a capacity vector route through the
			// clone reduction; inside, unit-capacity vectors dispatch on
			// strictness exactly like the historical popmatch.Solver.
			return e.solveCapacitated(cx, ins, maxcard, req.Into)
		}
		if req.Mode == ModeTies || req.Mode == ModeTiesMax {
			return e.solveTies(cx, ins, maxcard, req.Into)
		}
		// ModePopular/ModeMaxCard on plain instances keep Algorithm 1/3's
		// strict-lists contract: tied lists are rejected (callers pick the
		// ties modes explicitly), preserving the historical Solve semantics.
		if maxcard {
			return e.optimize(cx, ins, cardinalityWeights(ins), true, req.Into)
		}
		return e.popularStrict(cx, ins, req.Into)
	case ModeMaxWeight, ModeMinWeight:
		if err := requireUnitMode(ins, req.Mode); err != nil {
			return Outcome{}, err
		}
		w := req.Weights
		if w == nil {
			w = cardinalityWeights(ins)
		}
		return e.optimize(cx, ins, w, req.Mode == ModeMaxWeight, req.Into)
	case ModeRankMaximal:
		if err := requireUnitMode(ins, req.Mode); err != nil {
			return Outcome{}, err
		}
		return e.rankMaximal(cx, ins, req.Into)
	case ModeFair:
		if err := requireUnitMode(ins, req.Mode); err != nil {
			return Outcome{}, err
		}
		return e.fair(cx, ins, req.Into)
	}
	// Every mode passing Valid() is dispatched above; reaching here means a
	// mode was added to the enum without a dispatch case.
	panic(fmt.Sprintf("core: mode %s missing from Engine dispatch", req.Mode))
}

// requireUnitMode rejects capacitated instances on modes with no
// clone-reduction route; silently treating capacities as 1 would return
// wrong answers.
func requireUnitMode(ins *onesided.Instance, m Mode) error {
	if !ins.UnitCapacity() {
		return fmt.Errorf("core: mode %s does not support capacitated instances", m)
	}
	return nil
}

// cardinalityWeights scores real posts 1 and last resorts 0, making
// maximum-weight the maximum-cardinality criterion of Algorithm 3 (§IV-E).
func cardinalityWeights(ins *onesided.Instance) WeightFn {
	return func(a, p int32) int64 {
		if ins.IsLastResort(p) {
			return 0
		}
		return 1
	}
}

// popularStrict is Algorithm 1 on the strict kernel (see PopularInto). The
// release is deferred so a cancellation panic still returns the G′ arrays
// to the pooled session's arena.
func (e *Engine) popularStrict(cx *exec.Ctx, ins *onesided.Instance, into *onesided.Matching) (Outcome, error) {
	r, err := e.buildReduced(cx, ins)
	if err != nil {
		return Outcome{}, err
	}
	defer r.release(cx)
	res, err := popularFromReducedInto(r, into, Options{Exec: cx})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Matching: res.Matching, Exists: res.Exists, Peel: res.Peel, Promotions: res.Promotions}, nil
}

// buildReduced runs the kernel's G′ construction for a strict instance.
func (e *Engine) buildReduced(cx *exec.Ctx, ins *onesided.Instance) (*Reduced, error) {
	cx.Phase(par.PhaseValidate)
	c := ins.CSR()
	if !c.Strict() {
		return nil, fmt.Errorf("core: Algorithm 1 requires strictly-ordered preference lists")
	}
	cx.Phase(par.PhaseBuildReduced)
	k := &e.k
	k.begin(cx, ins, c)
	k.buildReduced()
	return &k.red, nil
}

// optimize is the §IV-E weighted engine with int64 weights: find any popular
// matching, then apply the best positive-margin switch per component.
func (e *Engine) optimize(cx *exec.Ctx, ins *onesided.Instance, w WeightFn, maximize bool, into *onesided.Matching) (Outcome, error) {
	r, err := e.buildReduced(cx, ins)
	if err != nil {
		return Outcome{}, err
	}
	defer r.release(cx)
	opt := Options{Exec: cx}
	res, err := popularFromReducedInto(r, into, opt)
	if err != nil || !res.Exists {
		return Outcome{Exists: res.Exists, Peel: res.Peel}, err
	}
	sw, err := BuildSwitching(r, res.Matching, opt)
	if err != nil {
		return Outcome{}, err
	}
	sign := int64(1)
	if !maximize {
		sign = -1
	}
	ew := edgeWeights(sw, func(a, p int32) int64 { return sign * w(a, p) },
		func(x, y int64) int64 { return x - y }, int64Ops, opt)
	stats := optimizeSwitches(sw, ew, int64Ops, opt)
	cx.PutInt64s(ew)
	sw.release(cx)
	return Outcome{Matching: res.Matching, Exists: true, Peel: res.Peel, Promotions: res.Promotions, Switch: stats}, nil
}

// bigOptimize is optimize with big.Int weights (the positional profile
// weights of rank-maximal and fair), drawing every intermediate big.Int from
// the engine's pool — the pool resets when the solve completes, so repeat
// solves reuse the same allocations.
func (e *Engine) bigOptimize(cx *exec.Ctx, ins *onesided.Instance, w func(a, p int32) *big.Int, maximize bool, into *onesided.Matching) (Outcome, error) {
	r, err := e.buildReduced(cx, ins)
	if err != nil {
		return Outcome{}, err
	}
	defer r.release(cx)
	defer e.bigs.reset()
	opt := Options{Exec: cx}
	res, err := popularFromReducedInto(r, into, opt)
	if err != nil || !res.Exists {
		return Outcome{Exists: res.Exists, Peel: res.Peel}, err
	}
	sw, err := BuildSwitching(r, res.Matching, opt)
	if err != nil {
		return Outcome{}, err
	}
	ops := e.bigs.ops()
	wrap := w
	if !maximize {
		wrap = func(a, p int32) *big.Int { return e.bigs.get().Neg(w(a, p)) }
	}
	ew := edgeWeights(sw, wrap,
		func(x, y *big.Int) *big.Int { return e.bigs.get().Sub(x, y) },
		ops, opt)
	stats := optimizeSwitches(sw, ew, ops, opt)
	sw.release(cx)
	return Outcome{Matching: res.Matching, Exists: true, Peel: res.Peel, Promotions: res.Promotions, Switch: stats}, nil
}

// rankMaximal finds a rank-maximal popular matching; see RankMaximal.
func (e *Engine) rankMaximal(cx *exec.Ctx, ins *onesided.Instance, into *onesided.Matching) (Outcome, error) {
	n2 := ins.NumPosts
	pow := e.pow.table(int64(ins.NumApplicants)+1, n2+2)
	zero := new(big.Int)
	return e.bigOptimize(cx, ins, func(a, p int32) *big.Int {
		if ins.IsLastResort(p) {
			return zero
		}
		k, _ := ins.RankOf(int(a), p)
		return pow[n2-int(k)+1]
	}, true, into)
}

// fair finds a fair popular matching; see Fair.
func (e *Engine) fair(cx *exec.Ctx, ins *onesided.Instance, into *onesided.Matching) (Outcome, error) {
	n2 := ins.NumPosts
	pow := e.pow.table(int64(ins.NumApplicants)+1, n2+2)
	return e.bigOptimize(cx, ins, func(a, p int32) *big.Int {
		if ins.IsLastResort(p) {
			return pow[n2+1]
		}
		k, _ := ins.RankOf(int(a), p)
		return pow[k]
	}, false, into)
}

// solveCapacitated is the clone-reduction route (see SolveCapacitated):
// unit-capacity instances bypass to the historical unit paths and wrap the
// matching as an Assignment; capacitated ones solve the cached expansion
// with the ties kernel and fold back.
func (e *Engine) solveCapacitated(cx *exec.Ctx, ins *onesided.Instance, maximizeCardinality bool, into *onesided.Matching) (Outcome, error) {
	if ins.UnitCapacity() {
		var out Outcome
		var err error
		switch {
		case !ins.CSR().Strict():
			out, err = e.solveTies(cx, ins, maximizeCardinality, into)
		case maximizeCardinality:
			out, err = e.optimize(cx, ins, cardinalityWeights(ins), true, into)
		default:
			out, err = e.popularStrict(cx, ins, into)
		}
		if err != nil || !out.Exists {
			return out, err
		}
		as, err := onesided.AssignmentFromPostOf(ins, out.Matching.PostOf)
		if err != nil {
			return Outcome{}, fmt.Errorf("core: unit solve produced an invalid assignment: %w", err)
		}
		out.Assignment = as
		return out, nil
	}

	exp, err := ins.Expanded()
	if err != nil {
		return Outcome{}, err
	}
	out, err := e.solveTies(cx, exp.Unit, maximizeCardinality, into)
	if err != nil || !out.Exists {
		return out, err
	}
	as, err := onesided.Fold(ins, exp.Unit, exp.CloneOf, out.Matching)
	if err != nil {
		return Outcome{}, fmt.Errorf("core: clone reduction folded to an invalid assignment: %w", err)
	}
	out.Assignment = as
	return out, nil
}

// bigPool recycles big.Int allocations across the rounds of one weighted
// solve and across solves: get hands out the next pooled integer, reset
// (called when the solve completes) returns them all. Values obtained from
// get are invalidated by reset, so nothing pooled may escape the solve —
// the weighted engine's margins and edge weights are all consumed before
// the result returns.
//
// get runs inside parallel rounds (the ops hooks are called from cx.For
// loop bodies), so the cursor is an atomic over a slab that is immutable
// during a solve: a get beyond the slab falls back to a fresh allocation,
// and reset — sequential, between solves — grows the slab to the observed
// demand, so the first solve of a given shape allocates and later solves
// draw everything from the pool.
type bigPool struct {
	all  []*big.Int
	next atomic.Int64
}

func (p *bigPool) get() *big.Int {
	i := p.next.Add(1) - 1
	if int64(len(p.all)) > i {
		return p.all[i]
	}
	return new(big.Int)
}

func (p *bigPool) reset() {
	need := int(p.next.Load())
	for len(p.all) < need {
		p.all = append(p.all, new(big.Int))
	}
	p.next.Store(0)
}

// ops returns the weightOps running on this pool.
func (p *bigPool) ops() weightOps[*big.Int] {
	return weightOps[*big.Int]{
		zero: func() *big.Int { return p.get().SetInt64(0) },
		add:  func(a, b *big.Int) *big.Int { return p.get().Add(a, b) },
		cmp:  func(a, b *big.Int) int { return a.Cmp(b) },
		newSlice: func(cx *exec.Ctx, n int) []*big.Int {
			return make([]*big.Int, n)
		},
		putSlice: func(cx *exec.Ctx, s []*big.Int) {},
	}
}

// powerCache memoizes the positional-weight power table B^0..B^n shared by
// the rank-maximal and fair modes (the pooled big.Ints must not back the
// table: its entries survive across rounds of the solve).
type powerCache struct {
	base int64
	pow  []*big.Int
}

func (pc *powerCache) table(base int64, n int) []*big.Int {
	if pc.base == base && len(pc.pow) >= n+1 {
		return pc.pow
	}
	pc.base = base
	pc.pow = powerTable(big.NewInt(base), n)
	return pc.pow
}
