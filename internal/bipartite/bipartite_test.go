package bipartite

import (
	"math/rand"
	"testing"
)

// bruteMaxMatching enumerates all matchings (small graphs only).
func bruteMaxMatching(g *Graph) int {
	usedR := make([]bool, g.NRight)
	var rec func(l int) int
	rec = func(l int) int {
		if l == g.NLeft {
			return 0
		}
		best := rec(l + 1) // leave l unmatched
		for _, r := range g.Adj[l] {
			if !usedR[r] {
				usedR[r] = true
				if got := 1 + rec(l+1); got > best {
					best = got
				}
				usedR[r] = false
			}
		}
		return best
	}
	return rec(0)
}

func randomGraph(rng *rand.Rand, nl, nr int, density float64) *Graph {
	g := New(nl, nr)
	for l := 0; l < nl; l++ {
		for r := 0; r < nr; r++ {
			if rng.Float64() < density {
				g.AddEdge(int32(l), int32(r))
			}
		}
	}
	return g
}

func checkMatching(t *testing.T, g *Graph, matchL, matchR []int32, size int) {
	t.Helper()
	got := 0
	for l := 0; l < g.NLeft; l++ {
		r := matchL[l]
		if r == -1 {
			continue
		}
		got++
		if matchR[r] != int32(l) {
			t.Fatalf("inverse mismatch at l=%d r=%d", l, r)
		}
		found := false
		for _, rr := range g.Adj[l] {
			if rr == r {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("matched pair (%d,%d) is not an edge", l, r)
		}
	}
	if got != size {
		t.Fatalf("size = %d but %d pairs matched", size, got)
	}
}

func TestHopcroftKarpKnown(t *testing.T) {
	// The greedy warm start pairs (0,0); reaching size 3 requires the
	// augmenting path 1 -> 0 -> 0 -> 1 -> 2 -> 2.
	g := New(3, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 1)
	g.AddEdge(2, 2)
	matchL, matchR, size := new(Scratch).HopcroftKarpScratch(nil, g)
	checkMatching(t, g, matchL, matchR, size)
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
}

func TestHopcroftKarpAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 150; trial++ {
		g := randomGraph(rng, 1+rng.Intn(7), 1+rng.Intn(7), 0.4)
		matchL, matchR, size := new(Scratch).HopcroftKarpScratch(nil, g)
		checkMatching(t, g, matchL, matchR, size)
		if want := bruteMaxMatching(g); size != want {
			t.Fatalf("size = %d, want %d", size, want)
		}
	}
}

func TestHopcroftKarpEmptyAndDisconnected(t *testing.T) {
	g := New(3, 2)
	_, _, size := new(Scratch).HopcroftKarpScratch(nil, g)
	if size != 0 {
		t.Fatalf("edgeless graph matched %d", size)
	}
	g.AddEdge(1, 1)
	matchL, matchR, size := new(Scratch).HopcroftKarpScratch(nil, g)
	checkMatching(t, g, matchL, matchR, size)
	if size != 1 {
		t.Fatalf("size = %d, want 1", size)
	}
}

func TestHopcroftKarpPerfectOnLarge(t *testing.T) {
	// A permutation plus noise always admits a perfect matching.
	rng := rand.New(rand.NewSource(72))
	n := 500
	g := New(n, n)
	perm := rng.Perm(n)
	for l := 0; l < n; l++ {
		g.AddEdge(int32(l), int32(perm[l]))
		for k := 0; k < 3; k++ {
			g.AddEdge(int32(l), int32(rng.Intn(n)))
		}
	}
	_, _, size := new(Scratch).HopcroftKarpScratch(nil, g)
	if size != n {
		t.Fatalf("size = %d, want %d", size, n)
	}
}

// refEOU labels by explicit alternating-path search from every unmatched
// vertex (exponential-free: BFS per source over the alternation levels).
func refEOU(g *Graph, matchL, matchR []int32) (left, right []Label) {
	left = make([]Label, g.NLeft)
	right = make([]Label, g.NRight)
	radj := make([][]int32, g.NRight)
	for l, outs := range g.Adj {
		for _, r := range outs {
			radj[r] = append(radj[r], int32(l))
		}
	}
	// evenL/oddL track reachability at each parity; grow to fixpoint.
	evenL := make([]bool, g.NLeft)
	oddL := make([]bool, g.NLeft)
	evenR := make([]bool, g.NRight)
	oddR := make([]bool, g.NRight)
	for l := range evenL {
		if matchL[l] == -1 {
			evenL[l] = true
		}
	}
	for r := range evenR {
		if matchR[r] == -1 {
			evenR[r] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for l := 0; l < g.NLeft; l++ {
			if evenL[l] {
				for _, r := range g.Adj[l] {
					if matchL[l] != r && !oddR[r] {
						oddR[r] = true
						changed = true
					}
				}
			}
			if oddL[l] && matchL[l] != -1 && !evenR[matchL[l]] {
				evenR[matchL[l]] = true
				changed = true
			}
		}
		for r := 0; r < g.NRight; r++ {
			if evenR[r] {
				for _, l := range radj[r] {
					if matchR[r] != l && !oddL[l] {
						oddL[l] = true
						changed = true
					}
				}
			}
			if oddR[r] && matchR[r] != -1 && !evenL[matchR[r]] {
				evenL[matchR[r]] = true
				changed = true
			}
		}
	}
	for l := range left {
		switch {
		case evenL[l]:
			left[l] = Even
		case oddL[l]:
			left[l] = Odd
		}
	}
	for r := range right {
		switch {
		case evenR[r]:
			right[r] = Even
		case oddR[r]:
			right[r] = Odd
		}
	}
	return left, right
}

func TestEOUAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 150; trial++ {
		g := randomGraph(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.35)
		matchL, matchR, _ := new(Scratch).HopcroftKarpScratch(nil, g)
		gotL, gotR := new(Scratch).EOUScratch(g, matchL, matchR)
		wantL, wantR := refEOU(g, matchL, matchR)
		for l := range gotL {
			if gotL[l] != wantL[l] {
				t.Fatalf("left %d: got %v, want %v", l, gotL[l], wantL[l])
			}
		}
		for r := range gotR {
			if gotR[r] != wantR[r] {
				t.Fatalf("right %d: got %v, want %v", r, gotR[r], wantR[r])
			}
		}
	}
}

func TestEOUStarShape(t *testing.T) {
	// Star: one post, three applicants — the strict-case f-post structure.
	g := New(3, 1)
	for l := 0; l < 3; l++ {
		g.AddEdge(int32(l), 0)
	}
	matchL, matchR, _ := new(Scratch).HopcroftKarpScratch(nil, g)
	left, right := new(Scratch).EOUScratch(g, matchL, matchR)
	if right[0] != Odd {
		t.Fatalf("star center = %v, want odd", right[0])
	}
	for l := 0; l < 3; l++ {
		if left[l] != Even {
			t.Fatalf("star leaf %d = %v, want even", l, left[l])
		}
	}
}

func TestEOUSingleEdgeUnreachable(t *testing.T) {
	// A matched pair with no alternatives: both unreachable.
	g := New(1, 1)
	g.AddEdge(0, 0)
	matchL, matchR, _ := new(Scratch).HopcroftKarpScratch(nil, g)
	left, right := new(Scratch).EOUScratch(g, matchL, matchR)
	if left[0] != Unreachable || right[0] != Unreachable {
		t.Fatalf("labels = %v/%v, want unreachable", left[0], right[0])
	}
}

func TestEOUNoVertexBothParities(t *testing.T) {
	// With a maximum matching the decomposition is a partition; the
	// reference's parity sets must never overlap.
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 80; trial++ {
		g := randomGraph(rng, 1+rng.Intn(9), 1+rng.Intn(9), 0.4)
		matchL, matchR, _ := new(Scratch).HopcroftKarpScratch(nil, g)
		radj := make([][]int32, g.NRight)
		for l, outs := range g.Adj {
			for _, r := range outs {
				radj[r] = append(radj[r], int32(l))
			}
		}
		left, right := new(Scratch).EOUScratch(g, matchL, matchR)
		// Structural consequences of maximality (see §V discussion):
		// no edge joins two Even vertices.
		for l, outs := range g.Adj {
			for _, r := range outs {
				if left[l] == Even && right[r] == Even {
					t.Fatalf("even-even edge (%d,%d) under a maximum matching", l, r)
				}
			}
		}
	}
}

func TestLabelString(t *testing.T) {
	if Even.String() != "even" || Odd.String() != "odd" || Unreachable.String() != "unreachable" {
		t.Fatal("Label.String mismatch")
	}
}

func BenchmarkHopcroftKarp(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 2000, 2000, 0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Scratch).HopcroftKarpScratch(nil, g)
	}
}
