// Package bipartite provides maximum-cardinality bipartite matching
// (Hopcroft–Karp) and the even/odd/unreachable (Gallai–Edmonds) vertex
// decomposition relative to a maximum matching.
//
// These are the substrate for §V of the paper: the popular matching problem
// with ties needs a maximum matching of the rank-one graph G1 and the EOU
// labels of its vertices (Abraham–Irving–Kavitha–Mehlhorn), and Theorem 11's
// reduction is differentially tested against Hopcroft–Karp.
package bipartite

// Graph is a bipartite graph with NLeft left vertices and NRight right
// vertices; Adj[l] lists the right neighbors of left vertex l.
type Graph struct {
	NLeft, NRight int
	Adj           [][]int32
}

// New returns an empty bipartite graph of the given dimensions.
func New(nLeft, nRight int) *Graph {
	return &Graph{NLeft: nLeft, NRight: nRight, Adj: make([][]int32, nLeft)}
}

// AddEdge adds the edge (l, r). Duplicate edges are allowed and harmless.
func (g *Graph) AddEdge(l, r int32) {
	g.Adj[l] = append(g.Adj[l], r)
}

// NumEdges returns the number of stored edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

const inf = int32(1) << 30

// Label classifies a vertex relative to a maximum matching.
type Label uint8

const (
	// Unreachable vertices are on no alternating path from any unmatched
	// vertex.
	Unreachable Label = iota
	// Even vertices are reachable by an even-length alternating path from an
	// unmatched vertex (unmatched vertices themselves are Even).
	Even
	// Odd vertices are reachable by an odd-length alternating path.
	Odd
)

func (l Label) String() string {
	switch l {
	case Even:
		return "even"
	case Odd:
		return "odd"
	default:
		return "unreachable"
	}
}
