package core

import (
	"math/big"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/pseudoforest"
)

// Algorithm 3 (§IV) and its weighted generalization (§IV-E).
//
// By Theorem 9, every popular matching arises from an arbitrary one by
// applying at most one switching path per tree component and the switching
// cycle or not per cycle component, and the choices are independent. An
// optimal popular matching therefore picks, per component, the switch with
// the best margin — computed here with weighted pointer jumping — and
// applies all positive choices in parallel.
//
// The engine (engine.go) runs it for the weighted modes; the optimizer below
// recycles its vertex-sized buffers through the weight-ops allocation hooks
// (arena scratch for int64, the engine's big.Int pool for the positional
// profile weights).

// WeightFn assigns a weight to matching applicant a with post p (p may be
// a's last resort). Weights must be small enough that path sums over n
// edges do not overflow int64.
type WeightFn func(a int32, p int32) int64

// weightOps abstracts the arithmetic and slice allocation the switch
// optimizer needs, so the same engine runs on int64 (maximum-cardinality,
// user weights) and on big.Int (the positional profile weights of
// rank-maximal and fair matchings) while recycling its buffers: int64
// slices come from the execution context's arena, big.Int values from the
// engine's pool.
type weightOps[T any] struct {
	zero     func() T
	add      func(a, b T) T
	cmp      func(a, b T) int
	newSlice func(cx *exec.Ctx, n int) []T
	putSlice func(cx *exec.Ctx, s []T)
}

var int64Ops = weightOps[int64]{
	zero: func() int64 { return 0 },
	add:  func(a, b int64) int64 { return a + b },
	cmp: func(a, b int64) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	},
	newSlice: func(cx *exec.Ctx, n int) []int64 { return cx.Int64s(n) },
	putSlice: func(cx *exec.Ctx, s []int64) { cx.PutInt64s(s) },
}

// SwitchStats reports what the optimizer applied.
type SwitchStats struct {
	CyclesApplied int
	PathsApplied  int
	Components    int
}

// optimizeSwitches picks and applies the best positive-margin switch per
// component of sw. edgeW[v] is the margin contribution of switching vertex
// v's applicant (weight(a, O_M(a)) − weight(a, M(a))).
func optimizeSwitches[T any](sw *Switching, edgeW []T, ops weightOps[T], opt Options) SwitchStats {
	cx := opt.exec()
	an := sw.Analysis
	nv := len(sw.Posts)
	stats := SwitchStats{}
	if nv == 0 {
		return stats
	}

	// Margins of every switching path: for each s-post vertex q in a tree
	// component (other than the sink), the sum of edge weights along
	// q -> sink, read off the analysis' cut ladder.
	sums := pathSums(cx, an, edgeW, ops)
	margin := ops.newSlice(cx, nv)
	isCandidate := cx.Bools(nv)
	cx.For(nv, func(v int) {
		d := an.DistToSink[v]
		if d <= 0 || !sw.IsSPostVertex(v) {
			return // cycle component, the sink itself, or an f-post
		}
		isCandidate[v] = true
		margin[v] = pathSum(an.Ladder.Up, sums, ops, v, d)
	})
	cx.Round(nv)

	// Fold per component into arrays indexed by its label (a vertex id):
	// the cycle margin of each cycle component, and the best switching path
	// of each tree component (max margin, ties to the smaller vertex id —
	// deterministic). A sequential fold; the parallel work was the ladder.
	cycleSum := ops.newSlice(cx, nv)
	isCycle := cx.Bools(nv)
	best := cx.Int32s(nv) // 1 + the best path's start vertex, 0 for none
	for v := 0; v < nv; v++ {
		c := an.Comp[v]
		switch {
		case an.OnCycle[v] && isCycle[c]:
			cycleSum[c] = ops.add(cycleSum[c], edgeW[v])
		case an.OnCycle[v]:
			isCycle[c] = true
			cycleSum[c] = edgeW[v]
		case isCandidate[v]:
			if b := best[c]; b == 0 || ops.cmp(margin[v], margin[b-1]) > 0 {
				best[c] = int32(v) + 1
			}
		}
	}
	// Keep only the positive switches: isCycle and best now mark what to
	// apply.
	zero := ops.zero()
	for c := 0; c < nv; c++ {
		if isCycle[c] {
			stats.Components++
			if ops.cmp(cycleSum[c], zero) > 0 {
				stats.CyclesApplied++
			} else {
				isCycle[c] = false
			}
		}
		if b := best[c]; b != 0 {
			stats.Components++
			if ops.cmp(margin[b-1], zero) > 0 {
				stats.PathsApplied++
			} else {
				best[c] = 0
			}
		}
	}

	// Mark the switched vertex set: positive cycles entirely; for chosen
	// paths, v is on path(q -> sink) iff jump(q, dist q − dist v) = v.
	on := cx.Bools(nv)
	cx.For(nv, func(v int) {
		c := an.Comp[v]
		if an.OnCycle[v] {
			on[v] = isCycle[c]
			return
		}
		b := best[c]
		if b == 0 {
			return
		}
		q := int(b - 1)
		dq, dv := an.DistToSink[q], an.DistToSink[v]
		if dv < 0 || dv > dq {
			return
		}
		on[v] = an.Ladder.Jump(q, dq-dv) == v
	})
	cx.Round(nv)
	sw.applySwitchVertices(on, opt)
	cx.PutBools(on)
	cx.PutBools(isCandidate)
	cx.PutBools(isCycle)
	cx.PutInt32s(best)
	ops.putSlice(cx, margin)
	ops.putSlice(cx, cycleSum)
	for _, level := range sums[1:] {
		ops.putSlice(cx, level)
	}
	return stats
}

// pathSums builds the weight-sum levels over the analysis' cut ladder:
// sums[k][v] is the total weight of the 2^k edges leaving v (sink-absorbing
// steps contribute zero, as a sink's w is zero). Level 0 is w itself. Only
// tree components are filled: a switching path runs to its sink, and the
// ladder is exact on such walks. The levels above 0 come from ops.newSlice;
// the caller releases them.
func pathSums[T any](cx *exec.Ctx, an *pseudoforest.Analysis, w []T, ops weightOps[T]) [][]T {
	n := len(w)
	up := an.Ladder.Up
	sums := make([][]T, len(up))
	sums[0] = w
	k := 0
	step := func(v int) {
		if an.DistToSink[v] >= 0 {
			prev := sums[k-1]
			sums[k][v] = ops.add(prev[v], prev[up[k-1][v]])
		}
	}
	for k = 1; k < len(up); k++ {
		sums[k] = ops.newSlice(cx, n)
		cx.For(n, step)
		cx.Round(n)
	}
	return sums
}

// pathSum returns the total weight of the `steps` edges leaving v, for a
// walk that ends at or before v's sink.
func pathSum[T any](up [][]int32, sums [][]T, ops weightOps[T], v, steps int) T {
	total := ops.zero()
	for k := 0; k < len(up) && steps > 0; k++ {
		if steps&(1<<k) != 0 {
			total = ops.add(total, sums[k][v])
			v = int(up[k][v])
			steps &^= 1 << k
		}
	}
	return total
}

// edgeWeights computes, for every switching-graph vertex with an out-edge,
// the margin contribution of switching its applicant. The returned slice
// comes from ops.newSlice; the caller releases it.
func edgeWeights[T any](sw *Switching, w func(a, p int32) T, sub func(x, y T) T, ops weightOps[T], opt Options) []T {
	cx := opt.exec()
	nv := len(sw.Posts)
	out := ops.newSlice(cx, nv)
	cx.For(nv, func(v int) {
		a := sw.EdgeApplicant[v]
		if a < 0 {
			out[v] = ops.zero()
			return
		}
		out[v] = sub(w(a, sw.OM(a)), w(a, sw.M.PostOf[a]))
	})
	cx.Round(nv)
	return out
}

func powerTable(base *big.Int, n int) []*big.Int {
	pow := make([]*big.Int, n+1)
	pow[0] = big.NewInt(1)
	for i := 1; i <= n; i++ {
		pow[i] = new(big.Int).Mul(pow[i-1], base)
	}
	return pow
}

// CountPopular returns the exact number of popular matchings of the
// instance without enumerating them, via Theorem 9's product structure: each
// tree component contributes 1 + (number of its switching paths) choices and
// each cycle component contributes 2. Returns 0 when none exists.
func CountPopular(ins *onesided.Instance, opt Options) (count *big.Int, err error) {
	defer exec.CatchCancel(&err)
	r, err := BuildReduced(ins, opt)
	if err != nil {
		return nil, err
	}
	defer r.release(opt.exec())
	res, err := popularFromReduced(r, opt)
	if err != nil {
		return nil, err
	}
	if !res.Exists {
		return new(big.Int), nil
	}
	sw, err := BuildSwitching(r, res.Matching, opt)
	if err != nil {
		return nil, err
	}
	defer sw.release(opt.exec())
	// Per component label (a vertex id): a tree component's switching paths,
	// one per s-post other than its sink. A cycle component holds exactly
	// one cycle (Lemma 4), so it is visited once, by its label.
	an := sw.Analysis
	paths := make([]int64, len(sw.Posts))
	for v := range sw.Posts {
		if an.DistToSink[v] > 0 && sw.IsSPostVertex(v) {
			paths[an.Comp[v]]++
		}
	}
	total := big.NewInt(1)
	var choices big.Int
	for v := range sw.Posts {
		switch {
		case an.Comp[v] != int32(v):
		case an.Sink[v] < 0:
			total.Lsh(total, 1) // switch the cycle or not
		default:
			total.Mul(total, choices.SetInt64(paths[v]+1)) // no switch, or one path
		}
	}
	return total, nil
}

// EnumerateAllPopular yields every popular matching of the instance exactly
// once, realizing Theorem 9's bijection: all combinations of at most one
// switching path per tree component and cycle-or-not per cycle component.
// The yielded matching is reused; clone to retain. Returns whether a popular
// matching exists. Intended for tests and small ablations — the count is
// exponential in the number of components.
func EnumerateAllPopular(ins *onesided.Instance, opt Options, yield func(*onesided.Matching) bool) (ok bool, err error) {
	defer exec.CatchCancel(&err)
	r, err := BuildReduced(ins, opt)
	if err != nil {
		return false, err
	}
	res, err := popularFromReduced(r, opt)
	if err != nil || !res.Exists {
		return false, err
	}
	sw, err := BuildSwitching(r, res.Matching, opt)
	if err != nil {
		return false, err
	}
	defer sw.release(opt.exec())
	an := sw.Analysis
	nv := len(sw.Posts)

	// Options per component: switching cycle vertex sets and switching path
	// vertex sets.
	type option []int32 // vertices to switch
	compOptions := map[int32][]option{}
	ensure := func(c int32) {
		if _, ok := compOptions[c]; !ok {
			compOptions[c] = []option{nil} // "do nothing"
		}
	}
	cycles := an.CycleVertices(sw.Graph)
	for c, cyc := range cycles {
		ensure(c)
		compOptions[c] = append(compOptions[c], option(cyc))
	}
	for v := 0; v < nv; v++ {
		d := an.DistToSink[v]
		c := an.Comp[v]
		ensure(c)
		if d <= 0 || !sw.IsSPostVertex(v) {
			continue
		}
		path := make(option, 0, d)
		u := v
		for step := 0; step < d; step++ {
			path = append(path, int32(u))
			u = int(sw.Graph.Succ[u])
		}
		compOptions[c] = append(compOptions[c], path)
	}

	comps := make([]int32, 0, len(compOptions))
	for c := range compOptions {
		comps = append(comps, c)
	}
	// Deterministic order.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j] < comps[j-1]; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}

	on := make([]bool, nv)
	stopped := false
	var rec func(i int)
	rec = func(i int) {
		if stopped {
			return
		}
		if i == len(comps) {
			work := res.Matching.Clone()
			swWork := *sw
			swWork.M = work
			swWork.applySwitchVertices(on, opt)
			if !yield(work) {
				stopped = true
			}
			return
		}
		for _, o := range compOptions[comps[i]] {
			for _, v := range o {
				on[v] = true
			}
			rec(i + 1)
			for _, v := range o {
				on[v] = false
			}
			if stopped {
				return
			}
		}
	}
	rec(0)
	return true, nil
}
