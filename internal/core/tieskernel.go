package core

import (
	"repro/internal/bipartite"
	"repro/internal/exec"
	"repro/internal/onesided"
)

// The §V ties path as an arena-resident kernel, mirroring the memory
// discipline of the strict kernel (kernel.go): the rank-one graph G1, the
// pruned graph G′, their Hopcroft–Karp/EOU scratch and the working matching
// live on the engine and are recycled across solves, so a reused solver's
// ties (and hence capacitated) solves reach a zero-allocation steady state.
// The algorithm is documented in ties.go.
type tiesKernel struct {
	g1, gp         bipartite.Builder
	bs             bipartite.Scratch
	matchL, matchR []int32
}

// solveTies finds a maximum-cardinality popular matching of an instance
// whose lists may contain ties, by AIKM's algorithm (see ties.go), or
// reports that no popular matching exists. into, when non-nil, is Reset and
// reused as the result matching. Capacities on ins are ignored (the
// capacitated route expands first); the engine's dispatch handles that
// routing.
func (e *engine) solveTies(cx *exec.Ctx, ins *onesided.Instance, into *onesided.Matching) (Outcome, error) {
	tk := &e.ties
	c := ins.CSR()
	n1, total := ins.NumApplicants, ins.TotalPosts()

	// G1: rank-one edges over real posts, read off the flat CSR rows (the
	// rank-1 prefix of each row, since ranks are nondecreasing).
	tk.g1.Reset(n1, ins.NumPosts)
	for a := 0; a < n1; a++ {
		tk.g1.StartRow()
		for i := c.Off[a]; i < c.Off[a+1] && c.Rank[i] == 1; i++ {
			tk.g1.Add(c.Post[i])
		}
	}
	g1 := tk.g1.Graph()
	m1L, m1R, size := tk.bs.HopcroftKarpScratch(cx, g1)
	left, right := tk.bs.EOUScratch(g1, m1L, m1R)

	// Augment M1 within G′, first without last-resort edges and then with
	// them. Augmenting never unmatches a vertex, so M ∩ E1 stays a maximum
	// matching of G1; the first pass maximizes the applicants on real posts,
	// and the second can only end its paths at last resorts.
	matchL := exec.Grow(&tk.matchL, n1)
	matchR := exec.Grow(&tk.matchR, total)
	copy(matchL, m1L)
	copy(matchR, m1R)
	for p := ins.NumPosts; p < total; p++ {
		matchR[p] = -1
	}
	for _, lastResorts := range [2]bool{false, true} {
		size = tk.bs.Augment(cx, tk.reduced(ins, c, left, right, lastResorts), matchL, matchR, size)
	}
	if size < n1 {
		// No applicant-complete matching within G′.
		return Outcome{Exists: false}, nil
	}
	m := into
	if m == nil {
		m = onesided.NewMatching(ins)
	} else {
		m.Reset(ins)
	}
	for a, p := range matchL {
		m.Match(int32(a), p)
	}
	return Outcome{Matching: m, Exists: true}, nil
}

// reduced builds G′ into the kernel's second builder, from the EOU labels
// of G1 relative to M1:
//   - every rank-one edge but the odd–odd, odd–unreachable and
//     unreachable–odd ones, which no maximum matching of G1 uses;
//   - for even applicants only, the s-edges: the most-preferred even posts,
//     else the last resort (only when lastResorts is set). Every maximum
//     matching of G1 matches the odd and unreachable applicants along E1.
//
// An even applicant's rank-one posts are all odd (an even–even edge of G1
// would close an augmenting path), so its s-posts lie past the rank-1
// prefix.
func (tk *tiesKernel) reduced(ins *onesided.Instance, c *onesided.CSR, left, right []bipartite.Label, lastResorts bool) *bipartite.Graph {
	const even, odd = bipartite.Even, bipartite.Odd
	tk.gp.Reset(ins.NumApplicants, ins.TotalPosts())
	for a := 0; a < ins.NumApplicants; a++ {
		tk.gp.StartRow()
		i, hi := c.Off[a], c.Off[a+1]
		for ; i < hi && c.Rank[i] == 1; i++ {
			p := c.Post[i]
			if left[a] != even && right[p] != even && (left[a] == odd || right[p] == odd) {
				continue
			}
			tk.gp.Add(p)
		}
		if left[a] != even {
			continue
		}
		best := int32(0)
		for ; i < hi && (best == 0 || c.Rank[i] == best); i++ {
			if p := c.Post[i]; right[p] == even {
				best = c.Rank[i]
				tk.gp.Add(p)
			}
		}
		if best == 0 && lastResorts {
			tk.gp.Add(ins.LastResort(a))
		}
	}
	return tk.gp.Graph()
}
