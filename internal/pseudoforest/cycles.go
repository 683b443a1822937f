package pseudoforest

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/concomp"
	"repro/internal/gf2"
	"repro/internal/par"
)

// The four cycle-detection approaches of §IV-A. All return a per-vertex
// on-cycle marking and must agree; TestCycleMethodsAgree cross-validates them
// and BenchmarkCycleMethods compares their cost, reproducing the paper's
// discussion of the trade-offs between Theorems 5, 7 and 8.

// CyclesByDoubling marks cycle vertices by pointer doubling: after jumping at
// least n steps, the image of every component sweeps out exactly its cycle
// (tree components land on their sink, which has no out-edge and is
// excluded). Analyze reads the same image off its cut ladder, which stops
// doubling as soon as the image stops shrinking.
func CyclesByDoubling(x par.Runner, g *Graph) []bool {
	n := g.N()
	abs := g.absorbing()
	zeros := make([]int, n)
	ptr, _ := par.Double(x, abs, zeros, func(a, b int) int { return 0 }, par.Iterations(n)+1)
	hit := make([]uint32, n)
	x.For(n, func(v int) { atomicStore1(&hit[ptr[v]]) })
	x.Round(n)
	on := make([]bool, n)
	x.For(n, func(v int) { on[v] = hit[v] == 1 && g.Succ[v] >= 0 })
	x.Round(n)
	return on
}

// CyclesByClosure marks cycle vertices with the transitive-closure approach
// (Theorem 5): i and j (i != j) lie on a common cycle iff G*(i,j) and
// G*(j,i). A vertex is on a cycle iff it mutually reaches some other vertex.
func CyclesByClosure(x par.Runner, g *Graph) []bool {
	n := g.N()
	adj := bitmat.FromFunctional(g.Succ)
	closure := bitmat.TransitiveClosure(x, adj)
	closureT := closure.Transpose()
	on := make([]bool, n)
	x.For(n, func(v int) {
		row := closure.Row(v)
		col := closureT.Row(v)
		for w := range row {
			both := row[w] & col[w]
			// Mask out the diagonal bit (v reaches itself reflexively).
			if w == v/64 {
				both &^= 1 << (v % 64)
			}
			if both != 0 {
				on[v] = true
				return
			}
		}
	})
	x.Round(n * ((n + 63) / 64))
	return on
}

// CyclesByRank marks cycle vertices with the incidence-rank approach
// (Lemma 6 + Theorem 7): edge e lies on its component's unique cycle iff
// rank(I_{G−e}) = rank(I_G), since removing a cycle edge preserves the
// component count. Each edge's rank is computed independently in parallel.
func CyclesByRank(x par.Runner, g *Graph) []bool {
	n := g.N()
	edges, _ := g.UndirectedEdges()
	intEdges := make([][2]int, len(edges))
	for i, e := range edges {
		intEdges[i] = [2]int{int(e[0]), int(e[1])}
	}
	seq := par.Sequential()
	base := gf2.Rank(seq, gf2.Incidence(n, intEdges))
	onEdge := make([]bool, len(edges))
	x.ForGrain(len(edges), 1, func(i int) {
		r := gf2.Rank(seq, gf2.IncidenceWithout(n, intEdges, i))
		onEdge[i] = r == base
	})
	x.Round(len(edges) * n)
	return vertexMarksFromEdges(x, n, edges, onEdge)
}

// CyclesByCC marks cycle vertices with the component-count approach
// (Theorem 8): edge e is on a cycle iff cc(G−e) = cc(G).
func CyclesByCC(x par.Runner, g *Graph) []bool {
	n := g.N()
	edges, _ := g.UndirectedEdges()
	base := concomp.Count(concomp.Parallel(x, n, edges))
	onEdge := make([]bool, len(edges))
	x.ForGrain(len(edges), 1, func(i int) {
		without := make([][2]int32, 0, len(edges)-1)
		without = append(without, edges[:i]...)
		without = append(without, edges[i+1:]...)
		onEdge[i] = concomp.Count(concomp.BFS(n, without)) == base
	})
	x.Round(len(edges) * n)
	return vertexMarksFromEdges(x, n, edges, onEdge)
}

// PathByCycleCompletion extracts the path from q to its component's sink
// using the construction in the last paragraph of §IV-A: add one directed
// edge from the sink back to q; the component becomes a cycle component
// whose unique cycle, traversed from q and truncated before the added edge,
// is exactly the switching path. It exists to cross-validate the
// binary-lifting path extraction used by Algorithm 3; q must lie in a tree
// component.
func PathByCycleCompletion(x par.Runner, g *Graph, q int) ([]int32, error) {
	a := Analyze(x, g)
	sink := a.Sink[q]
	if sink < 0 {
		return nil, fmt.Errorf("pseudoforest: vertex %d is in a cycle component", q)
	}
	if int(sink) == q {
		return []int32{sink}, nil
	}
	succ2 := make([]int32, len(g.Succ))
	copy(succ2, g.Succ)
	succ2[sink] = int32(q)
	g2, err := New(succ2)
	if err != nil {
		return nil, err
	}
	on := CyclesByDoubling(x, g2)
	if !on[q] {
		return nil, fmt.Errorf("pseudoforest: completion cycle misses %d", q)
	}
	path := []int32{int32(q)}
	for u := g2.Succ[q]; u != int32(q); u = g2.Succ[u] {
		path = append(path, u)
	}
	return path, nil
}

// vertexMarksFromEdges lifts an on-cycle edge marking to vertices: both
// endpoints of a cycle edge are cycle vertices.
func vertexMarksFromEdges(x par.Runner, n int, edges [][2]int32, onEdge []bool) []bool {
	hit := make([]uint32, n)
	x.For(len(edges), func(i int) {
		if onEdge[i] {
			atomicStore1(&hit[edges[i][0]])
			atomicStore1(&hit[edges[i][1]])
		}
	})
	x.Round(len(edges))
	on := make([]bool, n)
	x.For(n, func(v int) { on[v] = hit[v] == 1 })
	x.Round(n)
	return on
}
