package pseudoforest

import (
	"math/rand"
	"testing"

	"repro/internal/concomp"
	"repro/internal/par"
)

// refOnCycle is the straightforward sequential reference: walk from every
// vertex with the standard coloring scheme to find cycle vertices.
func refOnCycle(succ []int32) []bool {
	n := len(succ)
	state := make([]int, n) // 0 unvisited, 1 in progress (stamped), 2 done
	stamp := make([]int, n)
	on := make([]bool, n)
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		v := s
		for v != -1 && state[v] == 0 {
			state[v] = 1
			stamp[v] = s
			v = int(succ[v])
			if v >= 0 && state[v] == 1 && stamp[v] == s {
				// Found a new cycle: mark it.
				u := v
				for {
					on[u] = true
					u = int(succ[u])
					if u == v {
						break
					}
				}
				break
			}
		}
		// Finalize everything on this walk.
		v = s
		for v != -1 && state[v] == 1 && stamp[v] == s {
			state[v] = 2
			v = int(succ[v])
		}
	}
	return on
}

// randomFunctional generates a functional graph with a mix of sinks, trees
// and cycles. With one vertex there is no other vertex to point at, so it
// is a sink.
func randomFunctional(rng *rand.Rand, n int) *Graph {
	succ := make([]int32, n)
	for v := 0; v < n; v++ {
		r := rng.Float64()
		switch {
		case r < 0.15 || n == 1:
			succ[v] = -1 // sink
		default:
			u := rng.Intn(n)
			for u == v {
				u = rng.Intn(n)
			}
			succ[v] = int32(u)
		}
	}
	g, err := New(succ)
	if err != nil {
		panic(err)
	}
	return g
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New([]int32{0}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := New([]int32{5}); err == nil {
		t.Fatal("out-of-range successor accepted")
	}
	if _, err := New([]int32{-2}); err == nil {
		t.Fatal("successor below -1 accepted")
	}
	if _, err := New([]int32{1, -1}); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestCycleMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := par.NewPool(0)
	check := func(n int) {
		g := randomFunctional(rng, n)
		want := refOnCycle(g.Succ)
		methods := map[string][]bool{
			"doubling": CyclesByDoubling(p, g),
			"closure":  CyclesByClosure(p, g),
			"rank":     CyclesByRank(p, g),
			"cc":       CyclesByCC(p, g),
		}
		for name, got := range methods {
			if !boolsEqual(got, want) {
				t.Fatalf("n=%d method=%s: on-cycle marking differs from reference\ngot  %v\nwant %v\nsucc %v",
					n, name, got, want, g.Succ)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		check(1 + rng.Intn(80))
	}
	// The T4 sizes, where the closure method's n³ bit-matrix work shows.
	for _, n := range []int{64, 128, 256, 512} {
		check(n)
	}
	check(1) // a lone vertex: a sink, no cycle
}

func TestCycleMethodsTwoCycle(t *testing.T) {
	// The 2-cycle (a directed pair) is the trickiest case: the underlying
	// undirected multigraph has two parallel edges forming a length-2 cycle.
	p := par.NewPool(4)
	g, _ := New([]int32{1, 0, 0, -1}) // 0 <-> 1, 2 -> 0 tail, 3 sink
	want := []bool{true, true, false, false}
	for name, got := range map[string][]bool{
		"doubling": CyclesByDoubling(p, g),
		"closure":  CyclesByClosure(p, g),
		"rank":     CyclesByRank(p, g),
		"cc":       CyclesByCC(p, g),
	} {
		if !boolsEqual(got, want) {
			t.Fatalf("method=%s: got %v, want %v", name, got, want)
		}
	}
}

func TestAnalyzeComponentsAndSinks(t *testing.T) {
	p := par.NewPool(4)
	// Component A: 0 -> 1 -> 2 -> 0 cycle with tail 3 -> 0.
	// Component B: 4 -> 5, 5 sink, 6 -> 5.
	g, _ := New([]int32{1, 2, 0, 0, 5, -1, 5})
	a := Analyze(p, g)

	for v := 0; v <= 3; v++ {
		if a.Comp[v] != 0 {
			t.Fatalf("Comp[%d] = %d, want 0", v, a.Comp[v])
		}
		if a.Sink[v] != -1 {
			t.Fatalf("Sink[%d] = %d, want -1 (cycle component)", v, a.Sink[v])
		}
		if a.DistToSink[v] != -1 {
			t.Fatalf("DistToSink[%d] = %d, want -1", v, a.DistToSink[v])
		}
	}
	for v := 4; v <= 6; v++ {
		if a.Comp[v] != 4 {
			t.Fatalf("Comp[%d] = %d, want 4", v, a.Comp[v])
		}
		if a.Sink[v] != 5 {
			t.Fatalf("Sink[%d] = %d, want 5", v, a.Sink[v])
		}
	}
	wantOn := []bool{true, true, true, false, false, false, false}
	if !boolsEqual(a.OnCycle, wantOn) {
		t.Fatalf("OnCycle = %v, want %v", a.OnCycle, wantOn)
	}
	if a.DistToSink[4] != 1 || a.DistToSink[5] != 0 || a.DistToSink[6] != 1 {
		t.Fatalf("DistToSink tail = %v", a.DistToSink[4:])
	}
}

func TestAnalyzeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, p := range []*par.Pool{par.Sequential(), par.NewPool(0)} {
		for trial := 0; trial < 25; trial++ {
			n := 1 + rng.Intn(300)
			g := randomFunctional(rng, n)
			a := Analyze(p, g)
			want := refOnCycle(g.Succ)
			if !boolsEqual(a.OnCycle, want) {
				t.Fatalf("workers=%d n=%d: Analyze.OnCycle differs from reference", p.Workers(), n)
			}
			// Distance consistency: dist decreases by 1 along Succ in tree
			// components; sinks have dist 0.
			for v := 0; v < n; v++ {
				s := g.Succ[v]
				switch {
				case s < 0:
					if a.DistToSink[v] != 0 {
						t.Fatalf("sink %d has dist %d", v, a.DistToSink[v])
					}
				case a.DistToSink[v] >= 0:
					if a.DistToSink[int(s)] != a.DistToSink[v]-1 {
						t.Fatalf("dist[%d]=%d but dist[succ]=%d", v, a.DistToSink[v], a.DistToSink[int(s)])
					}
				default:
					if a.DistToSink[int(s)] != -1 {
						t.Fatalf("cycle-bound %d has terminating successor", v)
					}
				}
			}
		}
	}
}

func TestCycleVerticesOrder(t *testing.T) {
	p := par.NewPool(4)
	// Cycle 2 -> 5 -> 3 -> 2 plus tail 7 -> 2; separate cycle 0 -> 1 -> 0.
	g, _ := New([]int32{1, 0, 5, 2, -1, 3, -1, 2})
	a := Analyze(p, g)
	cycles := a.CycleVertices(g)
	if len(cycles) != 2 {
		t.Fatalf("found %d cycles, want 2", len(cycles))
	}
	c0 := cycles[a.Comp[0]]
	if len(c0) != 2 || c0[0] != 0 || c0[1] != 1 {
		t.Fatalf("cycle A = %v, want [0 1]", c0)
	}
	c2 := cycles[a.Comp[2]]
	if len(c2) != 3 || c2[0] != 2 || c2[1] != 5 || c2[2] != 3 {
		t.Fatalf("cycle B = %v, want [2 5 3] (successor order from min)", c2)
	}
}

func TestAnalyzeDistToSinkChain(t *testing.T) {
	for _, p := range []*par.Pool{par.Sequential(), par.NewPool(4)} {
		for _, n := range []int{1, 2, 3, 17, 100, 1000, 5000} {
			// A path v -> v+1 -> ... -> n-1 (sink).
			succ := make([]int32, n)
			for v := 0; v < n-1; v++ {
				succ[v] = int32(v + 1)
			}
			succ[n-1] = -1
			g, _ := New(succ)
			dist := Analyze(p, g).DistToSink
			for v := 0; v < n; v++ {
				if dist[v] != n-1-v {
					t.Fatalf("workers=%d n=%d: dist[%d] = %d, want %d", p.Workers(), n, v, dist[v], n-1-v)
				}
			}
		}
	}
}

func TestAnalyzeDistToSinkCycleFlagged(t *testing.T) {
	p := par.NewPool(4)
	// 0 -> 1 -> 2 -> 0 (cycle), 3 -> 0 (tail into cycle), 4 sink.
	g, _ := New([]int32{1, 2, 0, 0, -1})
	dist := Analyze(p, g).DistToSink
	for v := 0; v <= 3; v++ {
		if dist[v] != -1 {
			t.Fatalf("dist[%d] = %d, want -1 (cycle)", v, dist[v])
		}
	}
	if dist[4] != 0 {
		t.Fatalf("dist[4] = %d, want 0", dist[4])
	}
}

// TestAnalyzeLadderCut checks what Analyze reads off its cut ladder: the
// component labels are the minimum vertex ids (against the sequential BFS),
// the ladder is deep enough for every vertex's walk to its sink or cycle
// entry yet never deeper than ceil(log2 n)+1 levels, and Jump is exact
// within that promise.
func TestAnalyzeLadderCut(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, p := range []*par.Pool{par.Sequential(), par.NewPool(4)} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(3000)
			g := randomFunctional(rng, n)
			a := Analyze(p, g)
			edges, _ := g.UndirectedEdges()
			want := concomp.BFS(n, edges)
			onCycle := refOnCycle(g.Succ)
			maxDepth := 0
			for v := 0; v < n; v++ {
				if a.Comp[v] != want[v] {
					t.Fatalf("workers=%d n=%d: Comp[%d] = %d, want %d", p.Workers(), n, v, a.Comp[v], want[v])
				}
				// The walk to the sink or the cycle entry.
				depth, u := 0, v
				for g.Succ[u] >= 0 && !onCycle[u] {
					u = int(g.Succ[u])
					depth++
				}
				if depth > maxDepth {
					maxDepth = depth
				}
				steps := rng.Intn(depth + 1)
				w := v
				for s := 0; s < steps; s++ {
					w = int(g.Succ[w])
				}
				if got := a.Ladder.Jump(v, steps); got != w {
					t.Fatalf("workers=%d n=%d: Jump(%d,%d) = %d, want %d", p.Workers(), n, v, steps, got, w)
				}
			}
			levels := len(a.Ladder.Up)
			if levels > par.Iterations(n)+1 || 1<<(levels-1) < maxDepth {
				t.Fatalf("workers=%d n=%d: %d ladder levels for depth %d", p.Workers(), n, levels, maxDepth)
			}
		}
	}
	// A cycle stops the ladder at its first level; a path runs it to full
	// depth.
	ring := make([]int32, 1000)
	for v := range ring {
		ring[v] = int32((v + 1) % len(ring))
	}
	g, _ := New(ring)
	if levels := len(Analyze(par.Sequential(), g).Ladder.Up); levels != 1 {
		t.Fatalf("1000-cycle: %d ladder levels, want 1", levels)
	}
	ring[len(ring)-1] = -1
	g, _ = New(ring)
	if levels, want := len(Analyze(par.Sequential(), g).Ladder.Up), par.Iterations(1000)+1; levels != want {
		t.Fatalf("1000-path: %d ladder levels, want %d", levels, want)
	}
}

func TestUndirectedEdges(t *testing.T) {
	g, _ := New([]int32{1, -1, 1})
	edges, src := g.UndirectedEdges()
	if len(edges) != 2 || len(src) != 2 {
		t.Fatalf("edges = %v src = %v", edges, src)
	}
	if edges[0] != [2]int32{0, 1} || src[0] != 0 {
		t.Fatalf("edge 0 = %v from %d", edges[0], src[0])
	}
	if edges[1] != [2]int32{2, 1} || src[1] != 2 {
		t.Fatalf("edge 1 = %v from %d", edges[1], src[1])
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	p := par.NewPool(4)
	g, _ := New(nil)
	a := Analyze(p, g)
	if len(a.Comp) != 0 || len(a.OnCycle) != 0 {
		t.Fatal("empty graph should produce empty analysis")
	}
}

func TestPathByCycleCompletionMatchesLiftingWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p := par.NewPool(0)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(150)
		// In-forest toward sinks so every component is a tree component.
		succ := make([]int32, n)
		succ[0] = -1
		for v := 1; v < n; v++ {
			if rng.Intn(8) == 0 {
				succ[v] = -1 // extra sink
			} else {
				succ[v] = int32(rng.Intn(v))
			}
		}
		g, _ := New(succ)
		for q := 0; q < n; q++ {
			got, err := PathByCycleCompletion(p, g, q)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the plain successor walk.
			want := []int32{int32(q)}
			for u := succ[q]; u != -1; u = succ[u] {
				want = append(want, u)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d q=%d: path %v, want %v", n, q, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d: path %v, want %v", n, q, got, want)
				}
			}
		}
	}
}

func TestPathByCycleCompletionRejectsCycleVertices(t *testing.T) {
	p := par.NewPool(2)
	g, _ := New([]int32{1, 0}) // 2-cycle
	if _, err := PathByCycleCompletion(p, g, 0); err == nil {
		t.Fatal("cycle-component vertex accepted")
	}
}

func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := randomFunctional(rng, 1<<15)
	p := par.NewPool(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(p, g)
	}
}
