package core

import (
	"repro/internal/bipartite"
	"repro/internal/exec"
	"repro/internal/hungarian"
	"repro/internal/onesided"
	"repro/internal/par"
)

// The §V ties path as an arena-resident kernel, mirroring the memory
// discipline of the strict kernel (kernel.go): every buffer the solve needs —
// the rank-one graph G1 and its Hopcroft–Karp/EOU scratch, the flat
// lexicographic weight table, and the Hungarian working arrays — lives on
// the engine and is recycled across solves, so a reused solver's ties (and
// hence capacitated) solves stop rebuilding a bipartite.Graph and
// re-make-ing the O(n·total) weight rows on every call. The computation is
// exactly the one documented in ties.go; only the memory discipline
// changes, and the results are bit-identical.
type tiesKernel struct {
	gb   bipartite.Builder
	bs   bipartite.Scratch
	hung hungarian.Scratch

	evenPost []bool
	w        []int64 // flat n1 × total weight table

	// Per-solve bindings of the prebound loop bodies (weight probe, even
	// labelling, weight-row fill). Cleared at the end of each solve so a
	// pooled engine pins none of the request's data.
	cx         *exec.Ctx
	total      int
	probes     int
	ins        *onesided.Instance
	c          *onesided.CSR
	rightLabel []bipartite.Label
	nPosts     int
	maxCard    bool
	wTop       int64 // the lexicographic W = n1+1 weight of rank-one edges

	fnWeight   func(i, j int) int64
	fnEvenPost func(p int)
	fnFillRow  func(a int)
}

// init binds the Hungarian weight probe once; it captures only the kernel
// pointer, so repeat solves allocate no closures. The probe checks the
// context every few thousand lookups — the Hungarian assignment dominates
// the ties path (O(n³)), and this keeps it cancellable without measurable
// overhead.
func (tk *tiesKernel) init() {
	tk.fnWeight = func(i, j int) int64 {
		tk.probes++
		if tk.probes&0xfff == 0 {
			tk.cx.Check()
		}
		return tk.w[i*tk.total+j]
	}
	// Even posts over all ids; last resorts are isolated in G1, hence even.
	tk.fnEvenPost = func(p int) {
		if p < tk.nPosts {
			tk.evenPost[p] = tk.rightLabel[p] == bipartite.Even
		} else {
			tk.evenPost[p] = true
		}
	}
	// One weight-table row: the E′ = f-edges ∪ s-edges construction for
	// applicant a. Rows are disjoint and the body reads only immutable
	// per-solve data (CSR, evenPost), so rows fill in parallel.
	tk.fnFillRow = func(a int) {
		const forb = hungarian.Forbidden
		c, ins, total := tk.c, tk.ins, tk.total
		row := tk.w[a*total : (a+1)*total]
		for j := range row {
			row[j] = forb
		}
		lo, hi := c.Off[a], c.Off[a+1]
		// f(a): the whole first tie class (the rank-1 prefix of the row).
		for i := lo; i < hi && c.Rank[i] == 1; i++ {
			p := c.Post[i]
			row[p] = tk.wTop + tk.sEdgeWeight(p)
		}
		// s(a): the most-preferred even posts (the last resort competes at
		// rank worst+1).
		lrRank := c.LastResortRank(a)
		bestRank := lrRank
		for i := lo; i < hi; i++ {
			if tk.evenPost[c.Post[i]] && c.Rank[i] < bestRank {
				bestRank = c.Rank[i]
			}
		}
		if bestRank == lrRank {
			lr := ins.LastResort(a)
			if row[lr] == forb {
				row[lr] = tk.sEdgeWeight(lr)
			}
		} else {
			for i := lo; i < hi; i++ {
				if p := c.Post[i]; tk.evenPost[p] && c.Rank[i] == bestRank && row[p] == forb {
					row[p] = tk.sEdgeWeight(p)
				}
			}
		}
	}
}

// sEdgeWeight is the cardinality bonus of an s-edge: rank-one edges weigh
// W+bonus, other E′ edges weigh the bonus alone — 1 when the edge avoids a
// last resort and maximizing cardinality was requested.
func (tk *tiesKernel) sEdgeWeight(p int32) int64 {
	if tk.maxCard && !tk.ins.IsLastResort(p) {
		return 1
	}
	return 0
}

// solveTies finds a popular matching of an instance whose lists may contain
// ties, per the AIKM characterization (see the comment in ties.go). into,
// when non-nil, is Reset and reused as the result matching. Capacities on
// ins are ignored (the capacitated route expands first); the engine's
// dispatch handles that routing.
func (e *engine) solveTies(cx *exec.Ctx, ins *onesided.Instance, maximizeCardinality bool, into *onesided.Matching) (Outcome, error) {
	tk := &e.ties
	c := ins.CSR()
	n1 := ins.NumApplicants
	total := ins.TotalPosts()
	if n1 == 0 {
		m := into
		if m == nil {
			m = onesided.NewMatching(ins)
		} else {
			m.Reset(ins)
		}
		return Outcome{Matching: m, Exists: true}, nil
	}

	// G1: rank-one edges over real posts, read off the flat CSR rows (the
	// rank-1 prefix of each row, since ranks are nondecreasing), built into
	// the kernel's pooled flat adjacency.
	tk.gb.Reset(n1, ins.NumPosts)
	for a := 0; a < n1; a++ {
		tk.gb.StartRow()
		for i := c.Off[a]; i < c.Off[a+1] && c.Rank[i] == 1; i++ {
			tk.gb.Add(c.Post[i])
		}
	}
	g1 := tk.gb.Graph()
	matchL, matchR, m1 := tk.bs.HopcroftKarpScratch(cx, g1)
	_, rightLabel := tk.bs.EOUScratch(g1, matchL, matchR)

	// Bind the per-solve state the prebound loop bodies read. Deferred
	// clear so a cancellation panic out of the Hungarian sweep cannot leave
	// the pooled engine pinning the dead request's context or data.
	tk.cx, tk.total, tk.probes = cx, total, 0
	tk.ins, tk.c, tk.nPosts = ins, c, ins.NumPosts
	tk.maxCard, tk.wTop = maximizeCardinality, int64(n1)+1
	tk.rightLabel = rightLabel
	defer func() {
		tk.cx, tk.ins, tk.c, tk.rightLabel = nil, nil, nil, nil
	}()

	// Even posts over all ids, one parallel round.
	exec.Grow(&tk.evenPost, total)
	cx.ForGrain(total, par.Grain(total, cx.Workers()), tk.fnEvenPost)
	cx.Round(total)

	// E′ = f-edges ∪ s-edges, as a flat weight table for the lexicographic
	// assignment: rank-one edges weigh W+1 (they advance |M ∩ E1|), other
	// E′ edges weigh 1 when they avoid a last resort and maximizing
	// cardinality is requested. Rows are independent; fill them with the
	// rows of par.Grain's chunk of the n1·total cells: one chunk (on the
	// caller) below its break-even, else at least ~MinGrain cells each.
	tk.w = exec.Grow(&tk.w, n1*total)
	rowGrain := par.Grain(n1*total, cx.Workers()) / total
	if rowGrain < 1 {
		rowGrain = 1
	}
	cx.ForGrain(n1, rowGrain, tk.fnFillRow)
	cx.Round(n1 * total)
	rowTo, _, ok := tk.hung.MaxAssign(n1, total, tk.fnWeight)
	if !ok {
		// No applicant-complete matching within E′.
		return Outcome{Exists: false, MaxRank1: m1}, nil
	}
	m := into
	if m == nil {
		m = onesided.NewMatching(ins)
	} else {
		m.Reset(ins)
	}
	got1 := 0
	for a := 0; a < n1; a++ {
		p := int32(rowTo[a])
		m.Match(int32(a), p)
		if !ins.IsLastResort(p) {
			if r, onList := ins.RankOf(a, p); onList && r == 1 {
				got1++
			}
		}
	}
	if got1 != m1 {
		return Outcome{Exists: false, Rank1Size: got1, MaxRank1: m1}, nil
	}
	return Outcome{Matching: m, Exists: true, Rank1Size: got1, MaxRank1: m1}, nil
}
