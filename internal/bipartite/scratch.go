package bipartite

import "repro/internal/exec"

// Builder assembles a Graph whose adjacency lists are sub-slices of one flat
// backing array, both recycled across builds: a solver that rebuilds a
// same-shaped graph every solve (the §V ties path builds the rank-one graph
// G1 per call) reaches a zero-allocation steady state after the first build.
//
// Rows are appended in left-vertex order: Reset, then for each left vertex
// in increasing order StartRow followed by Add per right neighbor. Graph
// slices the rows out of the flat array; the returned graph aliases the
// Builder's storage and is valid only until the next Reset.
type Builder struct {
	g    Graph
	off  []int32 // row boundaries into flat; len NLeft+1
	flat []int32
	next int // rows started so far
}

// Reset empties the builder for an nLeft × nRight graph.
func (b *Builder) Reset(nLeft, nRight int) {
	b.g.NLeft, b.g.NRight = nLeft, nRight
	b.g.Adj = exec.Grow(&b.g.Adj, nLeft)
	b.off = exec.Grow(&b.off, nLeft+1)
	b.flat = b.flat[:0]
	b.next = 0
}

// StartRow begins the adjacency row of the next left vertex (rows are
// implicit, in increasing order starting at 0).
func (b *Builder) StartRow() {
	b.off[b.next] = int32(len(b.flat))
	b.next++
}

// Add appends right neighbor r to the current row.
func (b *Builder) Add(r int32) { b.flat = append(b.flat, r) }

// Graph finalizes and returns the built graph. Every row must have been
// started (NLeft calls to StartRow). The graph aliases the builder's
// storage: it is invalidated by the next Reset.
func (b *Builder) Graph() *Graph {
	if b.next != b.g.NLeft {
		panic("bipartite: Builder.Graph before every row was started")
	}
	b.off[b.g.NLeft] = int32(len(b.flat))
	for l := 0; l < b.g.NLeft; l++ {
		b.g.Adj[l] = b.flat[b.off[l]:b.off[l+1]]
	}
	return &b.g
}

// Scratch recycles the working and result arrays of HopcroftKarpScratch and
// EOUScratch across calls. The zero value is ready to use; a Scratch must
// not be shared by concurrent calls. Returned slices (matchings, labels)
// alias the Scratch and are valid only until its next use.
type Scratch struct {
	matchL, matchR []int32
	dist, queue    []int32

	left, right []Label
	radjHeads   [][]int32
	radjFlat    []int32
	radjOff     []int32
	nodeQueue   []eouNode
}

// HopcroftKarpScratch computes a maximum-cardinality matching in
// O(E sqrt(V)): matchL[l] is the right partner of l or -1, and matchR is the
// inverse. It seeds a greedy matching and grows it with Augment, so
// cancellation and tracing are Augment's. Every working array, and the
// returned matchL/matchR, is drawn from the Scratch, which owns the
// returned slices.
func (s *Scratch) HopcroftKarpScratch(cx *exec.Ctx, g *Graph) (matchL, matchR []int32, size int) {
	matchL = exec.Grow(&s.matchL, g.NLeft)
	matchR = exec.Grow(&s.matchR, g.NRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	// Greedy warm start.
	for l := 0; l < g.NLeft; l++ {
		for _, r := range g.Adj[l] {
			if matchR[r] == -1 {
				matchL[l] = r
				matchR[r] = int32(l)
				size++
				break
			}
		}
	}
	return matchL, matchR, s.Augment(cx, g, matchL, matchR, size)
}

// Augment grows the caller's matching (matchL, matchR) of g, of the given
// size, to a maximum matching along shortest augmenting paths
// (Hopcroft–Karp phases), in place, and returns the new size. matchL must
// have g.NLeft entries and matchR at least g.NRight, with -1 marking an
// unmatched vertex. Augmenting never unmatches a vertex: every vertex the
// input matching covers is covered by the result. Cancellation is checked
// at every BFS/DFS phase boundary (there are O(sqrt(V)) phases), and each
// phase is accounted as one round of O(E) work in the tracer; a nil cx
// does neither. The working arrays are drawn from the Scratch.
func (s *Scratch) Augment(cx *exec.Ctx, g *Graph, matchL, matchR []int32, size int) int {
	dist := exec.Grow(&s.dist, g.NLeft)
	queue := exec.Grow(&s.queue, g.NLeft)[:0]
	bfs := func() bool {
		queue = queue[:0]
		for l := 0; l < g.NLeft; l++ {
			if matchL[l] == -1 {
				dist[l] = 0
				queue = append(queue, int32(l))
			} else {
				dist[l] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, r := range g.Adj[l] {
				nl := matchR[r]
				if nl == -1 {
					found = true
				} else if dist[nl] == inf {
					dist[nl] = dist[l] + 1
					queue = append(queue, nl)
				}
			}
		}
		return found
	}
	var dfs func(l int32) bool
	dfs = func(l int32) bool {
		for _, r := range g.Adj[l] {
			nl := matchR[r]
			if nl == -1 || (dist[nl] == dist[l]+1 && dfs(nl)) {
				matchL[l] = r
				matchR[r] = int32(l)
				return true
			}
		}
		dist[l] = inf
		return false
	}
	for {
		if cx != nil {
			cx.Check()
			cx.Round(g.NumEdges())
		}
		if !bfs() {
			break
		}
		for l := 0; l < g.NLeft; l++ {
			if matchL[l] == -1 && dfs(int32(l)) {
				size++
			}
		}
	}
	s.queue = queue[:0]
	return size
}

type eouNode struct {
	isLeft bool
	v      int32
}

// EOUScratch computes the even/odd/unreachable decomposition of g relative
// to the maximum matching (matchL, matchR). The decomposition is well
// defined — no vertex is reachable at both parities — precisely because the
// matching is maximum; callers must pass one.
//
// Alternating BFS runs from every unmatched vertex on both sides: from an
// unmatched vertex the first step uses a non-matching edge, and steps
// alternate thereafter. The reverse adjacency, labels and BFS queue are
// drawn from the Scratch, which owns the returned slices.
func (s *Scratch) EOUScratch(g *Graph, matchL, matchR []int32) (left, right []Label) {
	left, right = exec.Grow(&s.left, g.NLeft), exec.Grow(&s.right, g.NRight)
	clear(left)
	clear(right)

	// Reverse adjacency as a counting-sort CSR over the recycled flat array
	// (left ids increase within each right vertex's entries).
	radjOff := exec.Grow(&s.radjOff, g.NRight+1)
	clear(radjOff)
	edges := 0
	for _, outs := range g.Adj {
		edges += len(outs)
		for _, r := range outs {
			radjOff[r+1]++
		}
	}
	for r := 0; r < g.NRight; r++ {
		radjOff[r+1] += radjOff[r]
	}
	radjFlat := exec.Grow(&s.radjFlat, edges)
	radj := exec.Grow(&s.radjHeads, g.NRight)
	cursor := exec.Grow(&s.dist, g.NRight) // reuse dist as scatter cursors
	copy(cursor, radjOff[:g.NRight])
	for l, outs := range g.Adj {
		for _, r := range outs {
			radjFlat[cursor[r]] = int32(l)
			cursor[r]++
		}
	}
	for r := 0; r < g.NRight; r++ {
		radj[r] = radjFlat[radjOff[r]:radjOff[r+1]]
	}

	queue := s.nodeQueue[:0]
	for l := 0; l < g.NLeft; l++ {
		if matchL[l] == -1 {
			left[l] = Even
			queue = append(queue, eouNode{true, int32(l)})
		}
	}
	for r := 0; r < g.NRight; r++ {
		if matchR[r] == -1 {
			right[r] = Even
			queue = append(queue, eouNode{false, int32(r)})
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		if cur.isLeft {
			l := cur.v
			if left[l] == Even {
				for _, r := range g.Adj[l] {
					if r == matchL[l] || right[r] != Unreachable {
						continue
					}
					right[r] = Odd
					queue = append(queue, eouNode{false, r})
				}
			} else {
				if r := matchL[l]; r != -1 && right[r] == Unreachable {
					right[r] = Even
					queue = append(queue, eouNode{false, r})
				}
			}
		} else {
			r := cur.v
			if right[r] == Even {
				for _, l := range radj[r] {
					if l == matchR[r] || left[l] != Unreachable {
						continue
					}
					left[l] = Odd
					queue = append(queue, eouNode{true, l})
				}
			} else {
				if l := matchR[r]; l != -1 && left[l] == Unreachable {
					left[l] = Even
					queue = append(queue, eouNode{true, l})
				}
			}
		}
	}
	s.nodeQueue = queue[:0]
	return left, right
}
