package concomp

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/par"
)

func randomEdges(rng *rand.Rand, n, m int) [][2]int32 {
	if n < 2 {
		return nil
	}
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return edges
}

func labelsEqual(a, b []int32) bool {
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

func TestBFSBasic(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; 5 isolated.
	edges := [][2]int32{{0, 1}, {1, 2}, {3, 4}}
	got := BFS(6, edges)
	want := []int32{0, 0, 0, 3, 3, 5}
	if !labelsEqual(got, want) {
		t.Fatalf("BFS = %v, want %v", got, want)
	}
}

func TestParallelMatchesBFSRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, p := range []*par.Pool{par.Sequential(), par.NewPool(0)} {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(500)
			m := rng.Intn(2 * n)
			edges := randomEdges(rng, n, m)
			want := BFS(n, edges)
			got := Parallel(p, n, edges)
			if !labelsEqual(got, want) {
				t.Fatalf("workers=%d n=%d m=%d: parallel labels differ from BFS", p.Workers(), n, m)
			}
		}
	}
}

func TestParallelEmptyAndSingle(t *testing.T) {
	p := par.NewPool(4)
	if got := Parallel(p, 0, nil); len(got) != 0 {
		t.Fatalf("n=0: got %v", got)
	}
	if got := Parallel(p, 1, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("n=1: got %v", got)
	}
}

func TestParallelPath(t *testing.T) {
	// A long path is the adversarial case for hooking algorithms.
	p := par.NewPool(0)
	n := 4096
	edges := make([][2]int32, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = [2]int32{int32(i), int32(i + 1)}
	}
	got := Parallel(p, n, edges)
	for v := range got {
		if got[v] != 0 {
			t.Fatalf("path: label[%d] = %d, want 0", v, got[v])
		}
	}
}

func TestParallelPathReversedIDs(t *testing.T) {
	// Path with decreasing ids stresses the min-hook direction.
	p := par.NewPool(0)
	n := 2048
	edges := make([][2]int32, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = [2]int32{int32(n - 1 - i), int32(n - 2 - i)}
	}
	got := Parallel(p, n, edges)
	for v := range got {
		if got[v] != 0 {
			t.Fatalf("reversed path: label[%d] = %d, want 0", v, got[v])
		}
	}
}

func TestParallelMultigraphAndParallelEdges(t *testing.T) {
	p := par.NewPool(4)
	edges := [][2]int32{{0, 1}, {0, 1}, {1, 0}, {2, 3}}
	got := Parallel(p, 4, edges)
	want := []int32{0, 0, 2, 2}
	if !labelsEqual(got, want) {
		t.Fatalf("multigraph labels = %v, want %v", got, want)
	}
}

func TestCount(t *testing.T) {
	labels := []int32{0, 0, 2, 2, 4}
	if got := Count(labels); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestParallelRoundsPolylog(t *testing.T) {
	// Empirical NC check on pseudoforest-shaped graphs (the only shapes the
	// paper feeds this primitive): rounds should stay well below linear.
	rng := rand.New(rand.NewSource(33))
	p := par.NewPool(0)
	for _, n := range []int{256, 1024, 4096} {
		// Functional graph: every vertex one out-edge.
		edges := make([][2]int32, n)
		for v := 0; v < n; v++ {
			edges[v] = [2]int32{int32(v), int32(rng.Intn(n))}
			if edges[v][0] == edges[v][1] {
				edges[v][1] = int32((v + 1) % n)
			}
		}
		var tr par.Tracer
		Parallel(exec.New(exec.Config{Pool: p, Tracer: &tr}), n, edges)
		// Generous polylog budget: c · log2(n)^2 rounds.
		log2 := 0
		for 1<<log2 < n {
			log2++
		}
		budget := int64(6 * log2 * log2)
		if tr.Rounds() > budget {
			t.Fatalf("n=%d: %d rounds exceeds polylog budget %d", n, tr.Rounds(), budget)
		}
	}
}

func BenchmarkParallelCC(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 1 << 16
	edges := randomEdges(rng, n, 2*n)
	p := par.NewPool(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parallel(p, n, edges)
	}
}

func BenchmarkBFSCC(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 1 << 16
	edges := randomEdges(rng, n, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(n, edges)
	}
}
