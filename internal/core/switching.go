package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/pseudoforest"
)

// Switching is the switching graph G_M of §IV: a directed graph with one
// vertex per post of G′ and, for each applicant a, an edge from M(a) to
// O_M(a) (the post of a's reduced list a is not assigned). By Lemma 4 it is
// a directed pseudoforest whose sinks are the unmatched s-posts.
type Switching struct {
	R *Reduced
	M *onesided.Matching
	// Posts[v] is the post id of vertex v; VertexOf inverts it (-1 when a
	// post id does not occur in G′).
	Posts    []int32
	VertexOf []int32
	// EdgeApplicant[v] labels v's out-edge with its applicant, -1 for sinks.
	EdgeApplicant []int32
	// Graph is the functional-graph view; Analysis its decomposition.
	Graph    *pseudoforest.Graph
	Analysis *pseudoforest.Analysis
}

// OM returns the post of a's reduced list that a is not assigned in M
// (well-defined for popular M by Theorem 1(ii)).
func (sw *Switching) OM(a int32) int32 {
	if sw.M.PostOf[a] == sw.R.F[a] {
		return sw.R.S[a]
	}
	return sw.R.F[a]
}

// BuildSwitching constructs G_M and its pseudoforest decomposition in
// parallel. m must be a popular matching of r's instance. The vertex arrays
// come from the execution context's arena; release returns them.
func BuildSwitching(r *Reduced, m *onesided.Matching, opt Options) (*Switching, error) {
	cx := opt.exec()
	sw := &Switching{R: r, M: m}
	sw.Posts, sw.VertexOf = r.postsInG(cx)
	nv := len(sw.Posts)
	succ := cx.Int32s(nv)
	sw.EdgeApplicant = cx.Int32s(nv)
	var bad atomic.Int32
	cx.For(nv, func(v int) {
		q := sw.Posts[v]
		a := m.ApplicantOf[q]
		sw.EdgeApplicant[v] = a
		if a < 0 {
			succ[v] = -1 // unmatched post: sink (Lemma 4(ii))
			return
		}
		if m.PostOf[a] != r.F[a] && m.PostOf[a] != r.S[a] {
			bad.Store(a + 1)
			succ[v] = -1
			return
		}
		succ[v] = sw.VertexOf[sw.OM(a)]
	})
	cx.Round(nv)
	if a := bad.Load(); a != 0 {
		return nil, fmt.Errorf("core: applicant %d not on a reduced-list post; switching graph undefined", a-1)
	}

	g, err := pseudoforest.New(succ)
	if err != nil {
		return nil, fmt.Errorf("core: switching graph malformed: %w", err)
	}
	sw.Graph = g
	sw.Analysis = pseudoforest.Analyze(cx, g)
	return sw, nil
}

// release returns the switching graph's arrays and its analysis to cx's
// arena; sw must not be used afterwards.
func (sw *Switching) release(cx *exec.Ctx) {
	sw.Analysis.Release(cx)
	cx.PutInt32s(sw.Posts)
	cx.PutInt32s(sw.VertexOf)
	cx.PutInt32s(sw.EdgeApplicant)
	cx.PutInt32s(sw.Graph.Succ)
}

// IsSPostVertex reports whether vertex v is an s-post (including last
// resorts): in G′ the f-posts and s-posts partition the posts, so this is
// the complement of IsF.
func (sw *Switching) IsSPostVertex(v int) bool {
	return !sw.R.IsF[sw.Posts[v]]
}

// applySwitchVertices switches the applicant of every vertex in `switch on`:
// each such a moves from M(a) to O_M(a). The set must be a union of switching
// cycles and switching paths (vertex-disjoint, closed under the switch
// semantics), which makes the two write rounds race-free.
func (sw *Switching) applySwitchVertices(on []bool, opt Options) {
	cx := opt.exec()
	m := sw.M
	nv := len(sw.Posts)
	// Round 1: vacate the switched posts.
	cx.For(nv, func(v int) {
		if !on[v] || sw.EdgeApplicant[v] < 0 {
			return
		}
		m.ApplicantOf[sw.Posts[v]] = -1
	})
	cx.Round(nv)
	// Round 2: move each switched applicant to its other post.
	cx.For(nv, func(v int) {
		a := sw.EdgeApplicant[v]
		if !on[v] || a < 0 {
			return
		}
		om := sw.OM(a)
		m.PostOf[a] = om
		m.ApplicantOf[om] = a
	})
	cx.Round(nv)
}
