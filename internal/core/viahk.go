package core

import (
	"repro/internal/bipartite"
	"repro/internal/exec"
	"repro/internal/onesided"
)

// PopularViaMatching solves the strict popular matching problem by reducing
// to maximum bipartite matching: an applicant-complete matching of the
// reduced graph G′ is exactly a left-perfect matching of the bipartite graph
// {(a, f(a)), (a, s(a))}, found here with Hopcroft–Karp, followed by
// Algorithm 1's promotion step.
//
// This is the direction of the paper's Conjecture 14 (Popular Matching ≤
// Maximum-cardinality Bipartite Matching) for strictly-ordered lists, where
// it holds unconditionally; the open question is only whether it holds in
// NC for ties. The function serves as a third independent engine for
// differential testing (alongside the parallel Algorithm 2 and the
// sequential peeling baseline).
func PopularViaMatching(ins *onesided.Instance, opt Options) (res Result, err error) {
	defer exec.CatchCancel(&err)
	r, err := BuildReduced(ins, opt)
	if err != nil {
		return Result{}, err
	}
	defer r.release(opt.exec())
	n1 := ins.NumApplicants
	g := bipartite.New(n1, ins.TotalPosts())
	for a := 0; a < n1; a++ {
		g.AddEdge(int32(a), r.F[a])
		g.AddEdge(int32(a), r.S[a])
	}
	matchL, _, size := new(bipartite.Scratch).HopcroftKarpScratch(nil, g)
	if size != n1 {
		return Result{Exists: false}, nil
	}
	m := onesided.NewMatching(ins)
	for a := 0; a < n1; a++ {
		m.Match(int32(a), matchL[a])
	}
	promotions, err := r.k.promote(m)
	if err != nil {
		return Result{}, err
	}
	return Result{Matching: m, Exists: true, Promotions: promotions}, nil
}
