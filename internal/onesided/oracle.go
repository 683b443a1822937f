package onesided

import (
	"repro/internal/exec"
	"repro/internal/hungarian"
)

// UnpopularityMargin returns max over all applicant-complete matchings M' of
// |P(M', m)| − |P(m, M')|: the best vote margin any challenger achieves
// against m. By Definition 1, m is popular iff the margin is ≤ 0.
//
// The maximization is an assignment problem: each applicant contributes a
// vote weight of +1 / 0 / −1 for every post they could hold in M' (their
// augmented list), depending on how it compares with m's assignment. This is
// the independent oracle the NC algorithms are verified against; it is
// O(n1²·(n1+n2)) via the Hungarian algorithm, so callers are tests and small
// experiment sweeps.
func UnpopularityMargin(ins *Instance, m *Matching) int {
	return UnpopularityMarginCtx(exec.Background(), ins, m)
}

// UnpopularityMarginCtx is UnpopularityMargin on an execution context: the
// Hungarian sweep polls cancellation every few thousand weight lookups, so a
// service can abort the O(n³) oracle mid-flight (the cancellation surfaces
// at the caller's exec.CatchCancel boundary).
func UnpopularityMarginCtx(cx *exec.Ctx, ins *Instance, m *Matching) int {
	n1 := ins.NumApplicants
	cols := ins.TotalPosts()
	// Dense vote table; Forbidden for non-edges.
	votes := make([][]int64, n1)
	for a := 0; a < n1; a++ {
		row := make([]int64, cols)
		for j := range row {
			row[j] = hungarian.Forbidden
		}
		cur := rankOrWorst(ins, a, m.PostOf[a])
		consider := func(p int32, r int32) {
			switch {
			case r < cur:
				row[p] = 1
			case r > cur:
				row[p] = -1
			default:
				row[p] = 0
			}
		}
		for i, p := range ins.Lists[a] {
			consider(p, ins.Ranks[a][i])
		}
		consider(ins.LastResort(a), ins.LastResortRank(a))
		votes[a] = row
	}
	var probes int
	_, total, ok := hungarian.MaxAssign(n1, cols, func(i, j int) int64 {
		probes++
		if probes&0xfff == 0 {
			cx.Check()
		}
		return votes[i][j]
	})
	if !ok {
		// Cannot happen: every applicant's last resort is always free.
		panic("onesided: margin oracle found no feasible assignment")
	}
	return int(total)
}
