package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/popmatch"
	"repro/stablematch"
)

// offlineCycle is the per-instance op cycle of offline_solve: ops 0-3 are
// popular solves, op 4 a max-cardinality solve and op 5 the next stable
// matchings (Algorithms 1, 3 and 4 of the paper).
const offlineCycle = 6

// offlineEnv runs the paper's three algorithms as a library caller sees them:
// one popmatch.Solver on the shared worker pool, results recycled through
// SolveRequestInto, and no serving layer.
type offlineEnv struct {
	solver  *popmatch.Solver
	ins     []*popmatch.Instance
	ref     [][2]*popmatch.Result // popular, maxcard
	sm      []*stablematch.Instance
	gs      []*stablematch.Matching
	refNext [][]*stablematch.Matching
	res     popmatch.Result // recycled by SolveRequestInto; offline_solve has one caller
	trace   popmatch.SolveTrace
}

func setupOffline(ctx context.Context, o options, _ *tracer) (env, error) {
	sz := o.sizes
	rng := rand.New(rand.NewSource(o.seed))
	ref := popmatch.NewSolver(popmatch.Options{Workers: 1})
	defer ref.Close()
	e := &offlineEnv{solver: popmatch.NewSolver(popmatch.Options{})}
	for range sz.offlineInstances {
		ins := popmatch.Solvable(rng, sz.offlineN, sz.offlineN/4, 5)
		var pair [2]*popmatch.Result
		for k, mode := range []popmatch.Mode{popmatch.ModePopular, popmatch.ModeMaxCard} {
			res, err := ref.SolveRequest(ctx, ins, popmatch.Request{Mode: mode})
			if err != nil {
				return nil, err
			}
			if !res.Exists {
				return nil, fmt.Errorf("offline reference: %v solve found no popular matching", mode)
			}
			if err := ref.Verify(ctx, ins, res.Matching); err != nil {
				return nil, fmt.Errorf("offline reference: %v: %w", mode, err)
			}
			pair[k] = &res
		}
		sm := stablematch.RandomInstance(rng, sz.stableN)
		gs := stablematch.GaleShapley(sm)
		next, err := stablematch.NextMatchings(sm, gs, stablematch.Options{Workers: 1, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		for _, m := range next {
			if err := stablematch.Verify(sm, m); err != nil {
				return nil, fmt.Errorf("offline reference: next stable matching: %w", err)
			}
		}
		e.ins = append(e.ins, ins)
		e.ref = append(e.ref, pair)
		e.sm = append(e.sm, sm)
		e.gs = append(e.gs, gs)
		e.refNext = append(e.refNext, next)
	}
	return e, nil
}

func (e *offlineEnv) op(ctx context.Context, i int64, ot *opTrace) error {
	k := int(i % offlineCycle)
	n := int(i/offlineCycle) % len(e.ins)
	if k == offlineCycle-1 {
		t0 := time.Now()
		next, err := stablematch.NextMatchings(e.sm[n], e.gs[n], stablematch.Options{Ctx: ctx})
		ot.call("stable.next", t0, time.Now())
		if err != nil {
			return err
		}
		if len(next) != len(e.refNext[n]) {
			return incorrect("stable instance %d: %d next matchings, want %d", n, len(next), len(e.refNext[n]))
		}
		for j, m := range next {
			if !m.Equal(e.refNext[n][j]) {
				return incorrect("stable instance %d: next matching %d differs from the reference", n, j)
			}
		}
		return nil
	}
	mode, name, want := popmatch.ModePopular, "popmatch.popular", e.ref[n][0]
	if k == offlineCycle-2 {
		mode, name, want = popmatch.ModeMaxCard, "popmatch.maxcard", e.ref[n][1]
	}
	req := popmatch.Request{Mode: mode}
	if ot != nil {
		req.Trace = &e.trace
	}
	res := &e.res
	t0 := time.Now()
	err := e.solver.SolveRequestInto(ctx, e.ins[n], req, res)
	ot.call(name, t0, time.Now())
	if err != nil {
		return err
	}
	if ot != nil {
		ot.t.addSolve(&e.trace)
	}
	if res.Exists != want.Exists || res.Size != want.Size || !res.Matching.Equal(want.Matching) {
		return incorrect("instance %d %v: matching differs from the reference", n, mode)
	}
	return nil
}

func (e *offlineEnv) stack() ([]*serve.Server, *shard.Router) { return nil, nil }

func (e *offlineEnv) finish(context.Context) error { return nil }

func (e *offlineEnv) close() { e.solver.Close() }
