// Package pseudoforest analyzes directed pseudoforests (functional graphs):
// digraphs in which every vertex has outdegree at most one. Both switching
// graphs of the paper are such graphs — G_M over posts (§IV, Lemma 4) and H_M
// over men (§VI, Lemma 17) — and every component contains either a single
// sink or a single cycle.
//
// The package finds the unique cycle of each component with the four
// approaches §IV-A discusses, so they can be cross-validated and benchmarked
// against each other:
//
//  1. pointer doubling on the functional graph itself (the cycle of a
//     component is exactly the image of the "jump n steps" map),
//  2. directed transitive closure (i and j share a cycle iff they reach each
//     other — Theorem 5 route),
//  3. GF(2) incidence-matrix rank of the underlying undirected multigraph
//     with one edge removed (Lemma 6 + Theorem 7 route),
//  4. connected-components count with one edge removed (Theorem 8 route).
//
// Analyze also provides what Algorithm 3 needs beyond the cycles: component
// labels, the distance and the path to each tree component's sink, and the
// cut lifting ladder those paths are read off (the switching phase reuses it
// for its path weight sums).
package pseudoforest

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/par"
)

// Graph is a directed pseudoforest on n vertices: Succ[v] is the unique
// out-neighbor of v, or -1 if v is a sink. Self-loops are not allowed.
type Graph struct {
	Succ []int32
}

// New validates and wraps a successor array.
func New(succ []int32) (*Graph, error) {
	for v, s := range succ {
		if int(s) == v {
			return nil, fmt.Errorf("pseudoforest: self-loop at vertex %d", v)
		}
		if s < -1 || int(s) >= len(succ) {
			return nil, fmt.Errorf("pseudoforest: successor %d of vertex %d out of range", s, v)
		}
	}
	return &Graph{Succ: succ}, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Succ) }

// absorbing returns the successor array with sinks turned into self-loops,
// the convention par.Double expects.
func (g *Graph) absorbing() []int32 {
	a := make([]int32, len(g.Succ))
	for v, s := range g.Succ {
		if s < 0 {
			a[v] = int32(v)
		} else {
			a[v] = s
		}
	}
	return a
}

// UndirectedEdges returns the underlying undirected multigraph edge list:
// one edge {v, Succ[v]} per non-sink vertex, indexed by source vertex order.
// EdgeSource[i] records which vertex contributed edge i.
func (g *Graph) UndirectedEdges() (edges [][2]int32, edgeSource []int32) {
	for v, s := range g.Succ {
		if s >= 0 {
			edges = append(edges, [2]int32{int32(v), s})
			edgeSource = append(edgeSource, int32(v))
		}
	}
	return edges, edgeSource
}

// Analysis holds the full decomposition of a pseudoforest. Its arrays come
// from the runner's arena when Analyze ran on an exec.Ctx with one; Release
// returns them.
type Analysis struct {
	// Comp[v] is the component label: the minimum vertex id of v's weakly
	// connected component.
	Comp []int32
	// OnCycle[v] reports whether v lies on its component's cycle.
	OnCycle []bool
	// Sink[v] is the sink vertex of v's component, or -1 for cycle
	// components.
	Sink []int32
	// DistToSink[v] is the number of Succ steps from v to the sink, or -1 in
	// cycle components.
	DistToSink []int
	// Ladder is the cut lifting ladder the decomposition was read off; §IV
	// reuses it for switching-path queries and path weight sums.
	Ladder Ladder
}

// Ladder is a binary-lifting ladder over the successor map with sinks
// absorbing: Up[k][v] is the vertex 2^k steps from v. Analyze stops adding
// levels at the first one whose image set (the set of pointer targets)
// equals the previous level's, or once 2^k reaches the vertex count. The
// image only ever shrinks, and it stops shrinking exactly when every pointer
// sits on a sink or a cycle, so 2^(len(Up)-1) is at least every vertex's
// distance to its sink or cycle entry: a graph of short paths gets a few
// levels, a long path the full ceil(log2 n)+1.
//
// The ladder promises exact jumps only for walks that end at or before a
// sink or a cycle entry, which is all the switching-path queries of §IV
// ask. A jump further around a cycle may need levels the ladder does not
// have; par.BuildLifting builds the full table for those.
type Ladder struct {
	Up [][]int32
}

// Jump returns the vertex `steps` successor hops from v, for a walk that
// ends at or before a sink or a cycle entry.
func (l *Ladder) Jump(v, steps int) int {
	for k := 0; k < len(l.Up) && steps > 0; k++ {
		if steps&(1<<k) != 0 {
			v = int(l.Up[k][v])
			steps &^= 1 << k
		}
	}
	return v
}

// Analyze decomposes the pseudoforest with pointer doubling alone, the fully
// parallel route (method 1 of §IV-A); the other cycle-finding methods are
// provided separately for cross-validation. Everything is read off one cut
// lifting ladder (see Ladder):
//
//   - the top level's image holds exactly the sinks and the cycle vertices,
//     so OnCycle is that image minus the sinks;
//   - one descent per vertex down the ladder finds its distance to the
//     image and the image vertex it enters, which gives DistToSink and Sink;
//   - a min-fold around each cycle elects the cycle's smallest vertex, and
//     each vertex joins the group of its sink or its cycle's leader; Comp is
//     the smallest vertex of each group (a concurrent min write).
//
// That is two rounds per ladder level, ceil(log2 L)+1 min-fold rounds for
// the longest cycle L (the fold stops at its fixpoint, as the strict
// kernel's does), and three more. Whether the ladder or the fold stops is a
// global test, so the round count does not depend on the worker count.
func Analyze(x par.Runner, g *Graph) *Analysis {
	n := g.N()
	ar := scratch(x)
	a := &Analysis{
		Comp:       ar.Int32s(n),
		OnCycle:    ar.Bools(n),
		Sink:       ar.Int32s(n),
		DistToSink: ar.Ints(n),
	}
	if n == 0 {
		return a
	}
	grain := par.Grain(n, x.Workers())
	z := &analyzer{
		x:     x,
		succ:  g.Succ,
		a:     a,
		grain: grain,
		hit:   ar.Uint32s(n),
		chunk: ar.Int32s((n + grain - 1) / grain),
		val:   ar.Int32s(n),
		nval:  ar.Int32s(n),
		ptr:   ar.Int32s(n),
		nptr:  ar.Int32s(n),
		minOf: ar.Int32s(n),
	}
	z.body = z.run
	z.ladder(ar)
	z.cycles()
	z.labels()
	ar.PutUint32s(z.hit)
	ar.PutInt32s(z.chunk)
	for _, s := range [][]int32{z.val, z.nval, z.ptr, z.nptr, z.minOf} {
		ar.PutInt32s(s)
	}
	return a
}

// Release returns the analysis' arrays, ladder included, to the arena of
// x, the runner Analyze ran on; the analysis must not be used afterwards.
func (a *Analysis) Release(x par.Runner) {
	ar := scratch(x)
	ar.PutInt32s(a.Comp)
	ar.PutBools(a.OnCycle)
	ar.PutInt32s(a.Sink)
	ar.PutInts(a.DistToSink)
	for _, lv := range a.Ladder.Up {
		ar.PutInt32s(lv)
	}
	*a = Analysis{}
}

// scratch returns the execution context whose arena Analyze draws from:
// the runner itself when it is one, else an arena-less context whose
// accessors fall back to make. It only allocates; loops run on the runner.
func scratch(x par.Runner) *exec.Ctx {
	if cx, ok := x.(*exec.Ctx); ok {
		return cx
	}
	return exec.Background()
}

// analyzer carries Analyze's state between its rounds. Every round is a
// chunk (Range) round of one bound body that runs the round's step, so the
// rounds allocate nothing; the per-chunk slot chunk[lo/grain] collects a
// count or a change flag without a shared atomic counter.
type analyzer struct {
	x     par.Runner
	succ  []int32
	a     *Analysis
	grain int
	body  func(lo, hi int) // z.run
	step  func(z *analyzer, lo, hi int)

	// hit[x] is 1+k for the last ladder level k whose image holds x; top is
	// the stamp of the level whose image is the sinks and cycle vertices.
	hit   []uint32
	stamp uint32
	top   uint32
	chunk []int32
	prev  []int32 // the level being doubled
	cur   []int32 // the level being built
	val   []int32 // cycle leader min-fold: smallest vertex seen so far
	nval  []int32
	ptr   []int32 // min-fold pointers; after the fold, each vertex's group
	nptr  []int32
	minOf []int32 // smallest vertex of each group, by group id
}

// round runs step over every vertex as one parallel round of `work` ops.
func (z *analyzer) round(step func(z *analyzer, lo, hi int), work int) {
	z.step = step
	z.x.Range(len(z.succ), z.grain, z.body)
	z.x.Round(work)
}

func (z *analyzer) run(lo, hi int) { z.step(z, lo, hi) }

// ladder builds the cut lifting ladder into a.Ladder.
func (z *analyzer) ladder(ar *exec.Ctx) {
	n := len(z.succ)
	maxK := par.Iterations(n)
	z.cur, z.stamp = ar.Int32s(n), 1
	z.round((*analyzer).level0, n)
	up := make([][]int32, 1, maxK+1)
	up[0] = z.cur
	size := n // the image of the identity, "level -1"
	// Without an earlier cut, level maxK (2^maxK >= n steps) has every
	// pointer on a sink or a cycle.
	z.top = uint32(maxK + 1)
	for k := 0; k < maxK; k++ {
		img := z.image()
		if img == size {
			// S_k = S_(k-1): every pointer already sat on a sink or a
			// cycle one level down, so level k adds nothing a query
			// within the ladder's promise reads.
			z.top = z.stamp
			if k > 0 {
				ar.PutInt32s(up[k])
				up = up[:k]
			}
			break
		}
		size = img
		z.prev, z.cur, z.stamp = z.cur, ar.Int32s(n), z.stamp+1
		z.round((*analyzer).double, n)
		up = append(up, z.cur)
	}
	z.a.Ladder.Up = up
	z.prev, z.cur = nil, nil
}

// mark adds vertex v to the current level's image: a same-value concurrent
// write, stored only by a writer that finds it unset.
func (z *analyzer) mark(v int32) {
	if atomic.LoadUint32(&z.hit[v]) != z.stamp {
		atomic.StoreUint32(&z.hit[v], z.stamp)
	}
}

func (z *analyzer) level0(lo, hi int) {
	for v := lo; v < hi; v++ {
		s := z.succ[v]
		if s < 0 {
			s = int32(v)
		}
		z.cur[v] = s
		z.mark(s)
	}
}

func (z *analyzer) double(lo, hi int) {
	for v := lo; v < hi; v++ {
		s := z.prev[z.prev[v]]
		z.cur[v] = s
		z.mark(s)
	}
}

// image returns the size of the current level's image.
func (z *analyzer) image() int {
	// A sequential pool runs the whole range as chunk 0; clear the other
	// slots so an earlier round's counts never leak in.
	clear(z.chunk)
	z.round((*analyzer).countImage, len(z.succ))
	total := 0
	for _, c := range z.chunk {
		total += int(c)
	}
	return total
}

func (z *analyzer) countImage(lo, hi int) {
	c := int32(0)
	for v := lo; v < hi; v++ {
		if z.hit[v] == z.stamp {
			c++
		}
	}
	z.chunk[lo/z.grain] = c
}

// cycles marks the cycle vertices (the top image minus the sinks) and elects
// each cycle's leader, its smallest vertex, into val by a min-fold doubling
// around the cycle that stops once no value changes: then val[ptr[v]] >=
// val[v] everywhere, which every further round preserves, so the frozen
// values are the full fold's.
func (z *analyzer) cycles() {
	n := len(z.succ)
	z.round((*analyzer).seedCycles, n)
	for i := 0; i <= par.Iterations(n); i++ {
		clear(z.chunk)
		z.round((*analyzer).foldMin, n)
		z.val, z.nval = z.nval, z.val
		z.ptr, z.nptr = z.nptr, z.ptr
		fixed := true
		for _, c := range z.chunk {
			if c != 0 {
				fixed = false
				break
			}
		}
		if fixed {
			return
		}
	}
}

func (z *analyzer) seedCycles(lo, hi int) {
	for v := lo; v < hi; v++ {
		on := z.hit[v] == z.top && z.succ[v] >= 0
		z.a.OnCycle[v] = on
		z.val[v] = int32(v)
		z.ptr[v] = int32(v)
		if on {
			z.ptr[v] = z.succ[v]
		}
		z.minOf[v] = int32(v)
	}
}

func (z *analyzer) foldMin(lo, hi int) {
	changed := false
	for v := lo; v < hi; v++ {
		p := z.ptr[v]
		m := z.val[v]
		if w := z.val[p]; w < m {
			m = w
			changed = true
		}
		z.nval[v] = m
		z.nptr[v] = z.ptr[p]
	}
	if changed {
		z.chunk[lo/z.grain] = 1
	}
}

// labels runs the per-vertex descent (distance and sink) and the component
// labels.
func (z *analyzer) labels() {
	n := len(z.succ)
	z.round((*analyzer).descend, n*len(z.a.Ladder.Up))
	z.round((*analyzer).label, n)
}

// descend walks v down the ladder to the last vertex outside the top image
// (membership is monotone along a walk: sinks absorb and cycles are closed),
// one step past which lies v's sink or its cycle entry. It records
// DistToSink and Sink, puts v in the group of its sink or its cycle's
// leader, and lowers that group's minimum to v.
func (z *analyzer) descend(lo, hi int) {
	up := z.a.Ladder.Up
	for v := lo; v < hi; v++ {
		u, d := int32(v), 0
		if z.hit[u] != z.top {
			for k := len(up) - 1; k >= 0; k-- {
				if w := up[k][u]; z.hit[w] != z.top {
					u = w
					d += 1 << k
				}
			}
			u = up[0][u]
			d++
		}
		group := u
		if z.succ[u] < 0 {
			z.a.Sink[v] = u
			z.a.DistToSink[v] = d
		} else {
			z.a.Sink[v] = -1
			z.a.DistToSink[v] = -1
			group = z.val[u]
		}
		z.ptr[v] = group
		for {
			m := atomic.LoadInt32(&z.minOf[group])
			if m <= int32(v) || atomic.CompareAndSwapInt32(&z.minOf[group], m, int32(v)) {
				break
			}
		}
	}
}

func (z *analyzer) label(lo, hi int) {
	for v := lo; v < hi; v++ {
		z.a.Comp[v] = z.minOf[z.ptr[v]]
	}
}

// CycleVertices groups the on-cycle vertices by component label. The order
// within each cycle follows the successor relation starting from the
// component's minimum on-cycle vertex, so results are deterministic.
func (a *Analysis) CycleVertices(g *Graph) map[int32][]int32 {
	leader := map[int32]int32{}
	for v := 0; v < g.N(); v++ {
		if !a.OnCycle[v] {
			continue
		}
		c := a.Comp[v]
		if cur, ok := leader[c]; !ok || int32(v) < cur {
			leader[c] = int32(v)
		}
	}
	out := make(map[int32][]int32, len(leader))
	for c, start := range leader {
		cyc := []int32{start}
		for u := g.Succ[start]; u != start; u = g.Succ[u] {
			cyc = append(cyc, u)
		}
		out[c] = cyc
	}
	return out
}

// atomicStore1 is the arbitrary-CRCW "any writer wins" idiom: all writers
// store the same value, realized with an atomic store to stay race-free.
func atomicStore1(p *uint32) { atomic.StoreUint32(p, 1) }
