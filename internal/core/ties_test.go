package core

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/onesided"
)

func TestSolveTiesDifferentialBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	opt := Options{}
	for trial := 0; trial < 250; trial++ {
		ins := onesided.RandomSmall(rng, 5, 5, true)
		res, err := SolveRequest(ins, Request{Mode: ModeTies}, opt)
		if err != nil {
			t.Fatal(err)
		}
		brute := onesided.AllPopularBrute(ins)
		if res.Exists != (len(brute) > 0) {
			t.Fatalf("trial %d: ties exists=%v, brute=%d popular matchings",
				trial, res.Exists, len(brute))
		}
		if res.Exists {
			if err := res.Matching.Validate(ins); err != nil {
				t.Fatal(err)
			}
			if !res.Matching.ApplicantComplete() {
				t.Fatalf("trial %d: ties output incomplete", trial)
			}
			if !onesided.IsPopularBrute(ins, res.Matching) {
				t.Fatalf("trial %d: ties output not popular (brute)", trial)
			}
		}
	}
}

func TestSolveTiesMaxCardinalityDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	opt := Options{}
	for trial := 0; trial < 200; trial++ {
		ins := onesided.RandomSmall(rng, 5, 5, true)
		res, err := SolveRequest(ins, Request{Mode: ModeTiesMax}, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := onesided.MaxPopularSizeBrute(ins)
		if !res.Exists {
			if want != -1 {
				t.Fatalf("trial %d: says unsolvable, brute max size %d", trial, want)
			}
			continue
		}
		if !onesided.IsPopularBrute(ins, res.Matching) {
			t.Fatalf("trial %d: output not popular", trial)
		}
		if got := res.Matching.Size(ins); got != want {
			t.Fatalf("trial %d: ties max-card %d, brute %d", trial, got, want)
		}
	}
}

func TestSolveTiesAgreesWithStrictSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	opt := Options{}
	for trial := 0; trial < 80; trial++ {
		ins := onesided.RandomStrict(rng, 5+rng.Intn(60), 3+rng.Intn(40), 1, 5)
		strict, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		ties, err := SolveRequest(ins, Request{Mode: ModeTies}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if strict.Exists != ties.Exists {
			t.Fatalf("trial %d: strict exists=%v, ties solver says %v",
				trial, strict.Exists, ties.Exists)
		}
		if ties.Exists {
			// Both must satisfy Theorem 1 on the strict instance.
			if err := VerifyPopular(ins, ties.Matching, opt); err != nil {
				t.Fatalf("trial %d: ties output on strict instance: %v", trial, err)
			}
		}
	}
}

func TestSolveTiesAllRankOneAlwaysExists(t *testing.T) {
	// Lemma 13: with every edge at rank one, a popular matching always
	// exists (maximum matchings are popular).
	rng := rand.New(rand.NewSource(114))
	opt := Options{}
	for trial := 0; trial < 60; trial++ {
		n1, n2 := 1+rng.Intn(8), 1+rng.Intn(8)
		lists := make([][]int32, 0, n1)
		ranks := make([][]int32, 0, n1)
		for a := 0; a < n1; a++ {
			var l []int32
			for p := 0; p < n2; p++ {
				if rng.Intn(3) == 0 {
					l = append(l, int32(p))
				}
			}
			if len(l) == 0 {
				l = append(l, int32(rng.Intn(n2)))
			}
			r := make([]int32, len(l))
			for i := range r {
				r[i] = 1
			}
			lists = append(lists, l)
			ranks = append(ranks, r)
		}
		ins, err := onesided.NewWithTies(n2, lists, ranks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveRequest(ins, Request{Mode: ModeTiesMax}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			t.Fatalf("trial %d: rank-one instance reported unsolvable (Lemma 13)", trial)
		}
		// Lemma 12: the popular matching is maximum-cardinality.
		g := bipartite.New(n1, n2)
		for a := 0; a < n1; a++ {
			for _, p := range lists[a] {
				g.AddEdge(int32(a), p)
			}
		}
		_, _, maxSize := new(bipartite.Scratch).HopcroftKarpScratch(nil, g)
		if got := res.Matching.Size(ins); got != maxSize {
			t.Fatalf("trial %d: popular size %d != max matching %d (Lemma 12)",
				trial, got, maxSize)
		}
	}
}

// --- E8: Theorem 11 ---

func TestTheorem11Reduction(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	opt := Options{}
	check := func(nl, nr int, density float64) {
		g := bipartite.New(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < density {
					g.AddEdge(int32(l), int32(r))
				}
			}
		}
		matchL, size, err := MaxMatchingViaPopular(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		_, _, want := new(bipartite.Scratch).HopcroftKarpScratch(nil, g)
		if size != want {
			t.Fatalf("%dx%d at density %.3f: reduction found %d, Hopcroft-Karp %d", nl, nr, density, size, want)
		}
		// The returned assignment must be a real matching of g.
		usedR := map[int32]bool{}
		for l := 0; l < nl; l++ {
			r := matchL[l]
			if r == -1 {
				continue
			}
			if usedR[r] {
				t.Fatalf("%dx%d at density %.3f: post %d matched twice", nl, nr, density, r)
			}
			usedR[r] = true
			found := false
			for _, rr := range g.Adj[l] {
				if rr == r {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%dx%d at density %.3f: (%d,%d) is not an edge", nl, nr, density, l, r)
			}
		}
	}
	for trial := 0; trial < 80; trial++ {
		check(1+rng.Intn(25), 1+rng.Intn(25), 0.25)
	}
	// The T5 sizes: sparse and denser square graphs (average degree 2 and 6).
	for _, n := range []int{100, 200, 400} {
		if n > 200 && testing.Short() {
			break
		}
		for _, deg := range []float64{2, 6} {
			check(n, n, deg/float64(n))
		}
	}
}

func TestTheorem11EdgeCases(t *testing.T) {
	opt := Options{}
	// Empty graph.
	g := bipartite.New(3, 3)
	matchL, size, err := MaxMatchingViaPopular(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if size != 0 {
		t.Fatalf("empty graph matched %d", size)
	}
	for _, r := range matchL {
		if r != -1 {
			t.Fatal("empty graph produced assignments")
		}
	}
	// Duplicate edges and isolated vertices.
	g2 := bipartite.New(3, 2)
	g2.AddEdge(0, 1)
	g2.AddEdge(0, 1)
	g2.AddEdge(2, 0)
	_, size2, err := MaxMatchingViaPopular(g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if size2 != 2 {
		t.Fatalf("size = %d, want 2", size2)
	}
}

func TestSolveTiesEmptyInstance(t *testing.T) {
	ins, err := onesided.NewWithTies(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRequest(ins, Request{Mode: ModeTies}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("empty ties instance must be trivially solvable")
	}
}

func TestSolveTiesKnownUnsolvable(t *testing.T) {
	// The classic 3-over-2 instance is unsolvable with or without ties
	// machinery.
	res, err := SolveRequest(onesided.Unsolvable(2), Request{Mode: ModeTies}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists {
		t.Fatal("unsolvable family accepted by ties solver")
	}
}
