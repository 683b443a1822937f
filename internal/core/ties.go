package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/exec"
	"repro/internal/onesided"
)

// §V: preference lists with ties.
//
// The paper proves maximum-cardinality bipartite matching ≤_NC popular
// matching (Theorem 11) and leaves an NC algorithm for the ties case open.
// To exercise the reduction end to end we implement the polynomial-time
// Abraham–Irving–Kavitha–Mehlhorn characterization as the "black box":
//
//	M is popular  ⟺  M ∩ E1 is a maximum matching of G1 = (A ∪ P, E1)
//	              and every applicant is matched to a post in f(a) ∪ s(a),
//
// where E1 is the rank-one edge set, f(a) the set of a's rank-one posts, and
// s(a) the set of a's most-preferred posts that are *even* in the
// even/odd/unreachable decomposition of G1 relative to a maximum matching
// (last resorts are isolated in G1, hence always even, so s(a) ≠ ∅).
//
// AIKM's algorithm finds such an M without weights, in O(√n·m) time and
// linear space. Take a maximum matching M1 of G1 and its EOU labels. G′
// keeps the f-edges that some maximum matching of G1 can use (none joins an
// odd vertex to an odd or unreachable one) and gives only the even
// applicants their s-edges, since every maximum matching of G1 matches the
// odd and unreachable ones along E1. Augmenting M1 to a maximum matching of
// G′ never unmatches a vertex, so M ∩ E1 stays maximum, and a popular
// matching exists iff the result is applicant-complete. Augmenting first
// without the last-resort edges maximizes the applicants on real posts, so
// the result is also a maximum-cardinality popular matching.
//
// The implementation lives in tieskernel.go as an arena-resident kernel on
// the unified engine (ModeTies and ModeTiesMax).

// MaxMatchingViaPopular is Theorem 11's reduction: it computes a
// maximum-cardinality matching of an arbitrary bipartite graph by building
// the popular matching instance in which every edge has rank one (and no
// last resorts count) and calling the popular-matching black box. By
// Lemmas 12 and 13 the returned popular matching is a maximum matching.
func MaxMatchingViaPopular(g *bipartite.Graph, opt Options) (matchL []int32, size int, err error) {
	defer exec.CatchCancel(&err)
	// Applicants with no edges stay unmatched; the instance model requires
	// non-empty lists, so compress them away.
	idx := make([]int32, 0, g.NLeft)
	lists := make([][]int32, 0, g.NLeft)
	for l := 0; l < g.NLeft; l++ {
		if len(g.Adj[l]) == 0 {
			continue
		}
		seen := map[int32]bool{}
		var dedup []int32
		for _, r := range g.Adj[l] {
			if !seen[r] {
				seen[r] = true
				dedup = append(dedup, r)
			}
		}
		idx = append(idx, int32(l))
		lists = append(lists, dedup)
	}
	ranks := make([][]int32, len(lists))
	for i := range lists {
		ranks[i] = make([]int32, len(lists[i]))
		for j := range ranks[i] {
			ranks[i][j] = 1
		}
	}
	ins, err := onesided.NewWithTies(g.NRight, lists, ranks)
	if err != nil {
		return nil, 0, fmt.Errorf("reduction instance invalid: %w", err)
	}
	res, err := SolveRequest(ins, Request{Mode: ModeTiesMax}, opt)
	if err != nil {
		return nil, 0, err
	}
	if !res.Exists {
		return nil, 0, fmt.Errorf("core: Lemma 13 violated: rank-one instance has no popular matching")
	}
	matchL = make([]int32, g.NLeft)
	for i := range matchL {
		matchL[i] = -1
	}
	for i, a := range idx {
		p := res.Matching.PostOf[i]
		if p >= 0 && !ins.IsLastResort(p) {
			matchL[a] = p
			size++
		}
	}
	return matchL, size, nil
}
