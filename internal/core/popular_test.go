package core

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/onesided"
	"repro/internal/par"
	"repro/internal/seq"
)

func optPools() []Options {
	return []Options{
		{Pool: par.Sequential()},
		{Pool: par.NewPool(4)},
		{Pool: par.NewPool(0)},
	}
}

// --- E1: Figures 1 and 2 ---

func TestPaperFigure1Reduction(t *testing.T) {
	ins := onesided.PaperFigure1()
	r, err := BuildReduced(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: f-posts {p1,p4,p5,p7} = ids {0,3,4,6}; s-posts {p2,p3,p6,p8,p9}.
	wantF := map[int32]bool{0: true, 3: true, 4: true, 6: true}
	for q := int32(0); q < int32(ins.NumPosts); q++ {
		if r.IsF[q] != wantF[q] {
			t.Fatalf("IsF[p%d] = %v, want %v", q+1, r.IsF[q], wantF[q])
		}
	}
	// Reduced preference lists of Figure 2a: (f(a), s(a)) pairs.
	wantFS := [][2]int32{{0, 1}, {3, 1}, {3, 2}, {0, 2}, {4, 1}, {6, 5}, {6, 7}, {6, 8}}
	for a, fs := range wantFS {
		if r.F[a] != fs[0] || r.S[a] != fs[1] {
			t.Fatalf("a%d: (f,s) = (p%d,p%d), want (p%d,p%d)",
				a+1, r.F[a]+1, r.S[a]+1, fs[0]+1, fs[1]+1)
		}
	}
	// f⁻¹(p7) = {a6, a7, a8}.
	finv := r.FInv(6)
	if len(finv) != 3 || finv[0] != 5 || finv[1] != 6 || finv[2] != 7 {
		t.Fatalf("f⁻¹(p7) = %v, want [5 6 7]", finv)
	}
}

// --- E2: Figure 3 and the full Algorithm 1 run ---

func TestPaperFigure1PopularMatching(t *testing.T) {
	ins := onesided.PaperFigure1()
	for _, opt := range optPools() {
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			t.Fatal("paper instance reported unsolvable")
		}
		// The peeling must match exactly the four pairs the paper lists —
		// (a8,p9), (a6,p6), (a7,p8), (a5,p5) — in its single round.
		if res.Peel.Rounds != 1 || res.Peel.PeeledPairs != 4 {
			t.Fatalf("peel stats = %+v, want 1 round / 4 pairs", res.Peel)
		}
		// The residual is the single 8-cycle of Figure 3.
		if res.Peel.CycleCount != 1 || res.Peel.CyclePairs != 4 {
			t.Fatalf("cycle stats = %+v, want 1 cycle / 4 pairs", res.Peel)
		}
		// One promotion: p7 takes a6.
		if res.Promotions != 1 {
			t.Fatalf("promotions = %d, want 1", res.Promotions)
		}
		// The final matching is exactly the paper's.
		want := onesided.PaperFigure1Matching(ins)
		for a := range want.PostOf {
			if res.Matching.PostOf[a] != want.PostOf[a] {
				t.Fatalf("workers=%d: a%d -> p%d, paper has p%d",
					opt.exec().Workers(), a+1, res.Matching.PostOf[a]+1, want.PostOf[a]+1)
			}
		}
		if err := VerifyPopular(ins, res.Matching, opt); err != nil {
			t.Fatal(err)
		}
	}
}

// --- differential tests ---

// completeExistsViaHK independently decides whether G′ admits an
// applicant-complete matching using Hopcroft–Karp.
func completeExistsViaHK(r *Reduced) bool {
	ins := r.Ins
	g := bipartite.New(ins.NumApplicants, ins.TotalPosts())
	for a := 0; a < ins.NumApplicants; a++ {
		g.AddEdge(int32(a), r.F[a])
		g.AddEdge(int32(a), r.S[a])
	}
	_, _, size := new(bipartite.Scratch).HopcroftKarpScratch(nil, g)
	return size == ins.NumApplicants
}

func TestPopularDifferentialSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	opt := Options{Pool: par.NewPool(0)}
	for trial := 0; trial < 300; trial++ {
		ins := onesided.RandomSmall(rng, 6, 6, false)
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		seqM, seqOK, err := seq.Popular(ins)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exists != seqOK {
			t.Fatalf("trial %d: parallel exists=%v, sequential exists=%v", trial, res.Exists, seqOK)
		}
		r, _ := BuildReduced(ins, opt)
		if res.Exists != completeExistsViaHK(r) {
			t.Fatalf("trial %d: existence disagrees with Hopcroft-Karp", trial)
		}
		bruteAny := len(onesided.AllPopularBrute(ins)) > 0
		if res.Exists != bruteAny {
			t.Fatalf("trial %d: exists=%v but brute force says %v", trial, res.Exists, bruteAny)
		}
		if res.Exists {
			if err := VerifyPopular(ins, res.Matching, opt); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !onesided.IsPopularBrute(ins, res.Matching) {
				t.Fatalf("trial %d: output fails the brute-force popularity check", trial)
			}
			if err := VerifyPopular(ins, seqM, opt); err != nil {
				t.Fatalf("trial %d: sequential output not popular: %v", trial, err)
			}
		}
	}
}

func TestPopularDifferentialMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 40; trial++ {
		n1 := 20 + rng.Intn(200)
		n2 := 10 + rng.Intn(200)
		ins := onesided.RandomStrict(rng, n1, n2, 1, 8)
		for _, opt := range optPools() {
			res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
			if err != nil {
				t.Fatal(err)
			}
			seqM, seqOK, err := seq.Popular(ins)
			if err != nil {
				t.Fatal(err)
			}
			if res.Exists != seqOK {
				t.Fatalf("trial %d workers=%d: exists mismatch", trial, opt.exec().Workers())
			}
			if res.Exists {
				if err := VerifyPopular(ins, res.Matching, opt); err != nil {
					t.Fatal(err)
				}
				if err := VerifyPopular(ins, seqM, opt); err != nil {
					t.Fatal(err)
				}
				// Oracle spot check (expensive; first trials only).
				if trial < 5 {
					if onesided.UnpopularityMargin(ins, res.Matching) > 0 {
						t.Fatalf("trial %d: oracle rejects parallel output", trial)
					}
				}
			}
		}
	}
}

func TestPopularSolvableFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	opt := Options{}
	for trial := 0; trial < 20; trial++ {
		ins := onesided.Solvable(rng, 5+rng.Intn(100), 3+rng.Intn(20), 4)
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			t.Fatal("solvable family reported unsolvable")
		}
		if err := VerifyPopular(ins, res.Matching, opt); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPopularUnsolvableFamily(t *testing.T) {
	opt := Options{}
	for k := 1; k <= 6; k++ {
		res, err := SolveRequest(onesided.Unsolvable(k), Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exists {
			t.Fatalf("k=%d: unsolvable family reported solvable", k)
		}
	}
}

// --- E4: Lemma 2 ---

func TestLemma2RoundBound(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	opt := Options{}
	check := func(name string, ins *onesided.Instance) {
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		n := ins.NumApplicants + ins.TotalPosts()
		bound := par.Iterations(n) + 1 // ceil(log2 n) + 1
		if res.Peel.Rounds > bound {
			t.Fatalf("%s: %d peeling rounds exceeds Lemma 2 bound %d (n=%d)",
				name, res.Peel.Rounds, bound, n)
		}
	}
	for trial := 0; trial < 30; trial++ {
		check("random", onesided.RandomStrict(rng, 10+rng.Intn(300), 10+rng.Intn(300), 1, 6))
	}
	// The T1 sizes: square instances with short lists at n = 10³…10⁵.
	for _, n := range []int{1000, 10000, 100000} {
		if n > 10000 && testing.Short() {
			break
		}
		check("random", onesided.RandomStrict(rng, n, n, 1, 6))
	}
	for depth := 1; depth <= 9; depth++ {
		check("broom", onesided.BinaryBroom(depth))
	}
}

func TestBinaryBroomForcesDepthRounds(t *testing.T) {
	opt := Options{}
	for _, depth := range []int{2, 3, 4, 5, 6, 7, 8, 12, 16} {
		ins := onesided.BinaryBroom(depth)
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			t.Fatalf("depth=%d: broom reported unsolvable", depth)
		}
		if err := VerifyPopular(ins, res.Matching, opt); err != nil {
			t.Fatal(err)
		}
		if res.Peel.Rounds != depth {
			t.Fatalf("depth=%d: %d peeling rounds, want exactly %d", depth, res.Peel.Rounds, depth)
		}
		// The final round peels the path child -> root -> child whose both
		// endpoints have degree 1, so everything is matched in the peeling
		// and no residual cycles remain.
		if res.Peel.CycleCount != 0 || res.Peel.PeeledPairs != ins.NumApplicants {
			t.Fatalf("depth=%d: peel stats %+v, want all %d pairs peeled",
				depth, res.Peel, ins.NumApplicants)
		}
	}
}

func TestVerifyPopularRejects(t *testing.T) {
	ins := onesided.PaperFigure1()
	opt := Options{}
	m := onesided.PaperFigure1Matching(ins)
	// Break Theorem 1(ii): move a1 to p6 (rank 5, neither f nor s).
	m.Match(0, 5)
	m.Match(1, 0)
	if err := VerifyPopular(ins, m, opt); err == nil {
		t.Fatal("VerifyPopular accepted a non-popular matching")
	}
	// Break completeness.
	m2 := onesided.PaperFigure1Matching(ins)
	m2.PostOf[3] = -1
	m2.ApplicantOf[2] = -1
	if err := VerifyPopular(ins, m2, opt); err == nil {
		t.Fatal("VerifyPopular accepted an incomplete matching")
	}
}

func TestBuildReducedRejectsTies(t *testing.T) {
	ins, _ := onesided.NewWithTies(2, [][]int32{{0, 1}}, [][]int32{{1, 1}})
	if _, err := BuildReduced(ins, Options{}); err == nil {
		t.Fatal("ties accepted by BuildReduced")
	}
}

func TestPopularEmptyInstance(t *testing.T) {
	ins, err := onesided.NewStrict(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("empty instance must have the empty popular matching")
	}
}

func TestPopularSingleApplicant(t *testing.T) {
	ins, _ := onesided.NewStrict(2, [][]int32{{0, 1}})
	res, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("single applicant must be matchable")
	}
	if res.Matching.PostOf[0] != 0 {
		t.Fatalf("a0 -> p%d, want first choice p0", res.Matching.PostOf[0])
	}
}

func TestPopularAllSameList(t *testing.T) {
	// Two applicants with identical two-post lists: reduced graph is the
	// 4-cycle a0-p0-a1-p1; both assignments are popular.
	ins, _ := onesided.NewStrict(2, [][]int32{{0, 1}, {0, 1}})
	opt := Options{}
	res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("2 applicants / 2 posts reported unsolvable")
	}
	if err := VerifyPopular(ins, res.Matching, opt); err != nil {
		t.Fatal(err)
	}
	// Three applicants over the same two posts: unsolvable.
	ins3, _ := onesided.NewStrict(2, [][]int32{{0, 1}, {0, 1}, {0, 1}})
	res3, err := SolveRequest(ins3, Request{Mode: ModePopular}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Exists {
		t.Fatal("3 applicants over 2 posts must be unsolvable")
	}
}

// --- E12: the NC bounds of Theorems 3 and 10, as gates ---

// The paper's NC claims, pinned: a solve of an n-applicant instance takes
// at most c₁·L² bulk-synchronous rounds and c₂·n·L units of work, where
// L = par.Iterations(2n) (Lemma 2's log factor on top of the O(log n)
// doubling rounds per peel iteration). Rounds and work come from
// par.Tracer, so they do not depend on timing. Each constant is the largest
// ratio measured over seeds 1–3, n = 10³, 10⁴, 10⁵ and P = 1, 2, plus 10%.
// The constants only ratchet down: a change that lowers rounds or work
// lowers its constant in the same change.
const (
	// RandomStrict(n, n, 1, 6).
	randomPopularRounds = 1.1 * 96 / 121  // max 96 rounds at L = 11 (n = 10³, seed 1)
	randomPopularWork   = 1.1 * 35.3883   // max 35.3883·n·L (n = 10⁵, seed 2)
	randomMaxCardRounds = 1.1 * 130 / 121 // max 130 rounds at L = 11 (n = 10³, seed 1)
	randomMaxCardWork   = 1.1 * 38.8943   // max 38.8943·n·L (n = 10⁵, seed 2)
	// Solvable(n, n/4, 5).
	solvablePopularRounds = 1.1 * 29 / 121 // max 29 rounds at L = 11 (n = 10³, every seed)
	solvablePopularWork   = 1.1 * 5.4341   // max 5.4341·n·L (n = 10³, seed 2)
	solvableMaxCardRounds = 1.1 * 47 / 121 // max 47 rounds at L = 11 (n = 10³, every seed)
	solvableMaxCardWork   = 1.1 * 7.5225   // max 7.5225·n·L (n = 10³, seed 2)
)

// TestTracerRoundsPolylog gates every (family, mode) pair on its constants
// at P = 1 and P = 2. Neither rounds nor work may depend on the worker
// count (a chunked scan charges par.CombineWork, not the pool's own block
// count). `go test -run TracerRoundsPolylog -v` prints every ratio.
// n = 10⁵ is skipped under -short.
func TestTracerRoundsPolylog(t *testing.T) {
	random := func(rng *rand.Rand, n int) *onesided.Instance { return onesided.RandomStrict(rng, n, n, 1, 6) }
	solvable := func(rng *rand.Rand, n int) *onesided.Instance { return onesided.Solvable(rng, n, n/4, 5) }
	gates := []struct {
		family       string
		gen          func(*rand.Rand, int) *onesided.Instance
		mode         Mode
		rounds, work float64
	}{
		{"random", random, ModePopular, randomPopularRounds, randomPopularWork},
		{"random", random, ModeMaxCard, randomMaxCardRounds, randomMaxCardWork},
		{"solvable", solvable, ModePopular, solvablePopularRounds, solvablePopularWork},
		{"solvable", solvable, ModeMaxCard, solvableMaxCardRounds, solvableMaxCardWork},
	}
	sizes := []int{1000, 10000, 100000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	pools := []*par.Pool{par.NewPool(1), par.NewPool(2)}
	defer pools[0].Close()
	defer pools[1].Close()
	for _, g := range gates {
		for _, n := range sizes {
			lg := float64(par.Iterations(2 * n))
			for seed := int64(1); seed <= 3; seed++ {
				ins := g.gen(rand.New(rand.NewSource(seed)), n)
				var rounds, work [2]int64
				for i, pool := range pools {
					var tr par.Tracer
					if _, err := SolveRequest(ins, Request{Mode: g.mode}, Options{Pool: pool, Tracer: &tr}); err != nil {
						t.Fatal(err)
					}
					rounds[i], work[i] = tr.Rounds(), tr.Work()
					r := float64(tr.Rounds()) / (lg * lg)
					w := float64(tr.Work()) / (float64(n) * lg)
					t.Logf("%s %s n=%d seed=%d P=%d: %d rounds = %.4f·L², work %d = %.4f·n·L",
						g.family, g.mode, n, seed, i+1, tr.Rounds(), r, tr.Work(), w)
					if r > g.rounds {
						t.Errorf("%s %s n=%d seed=%d P=%d: %.4f·L² rounds exceeds the gate %.4f",
							g.family, g.mode, n, seed, i+1, r, g.rounds)
					}
					if w > g.work {
						t.Errorf("%s %s n=%d seed=%d P=%d: %.4f·n·L work exceeds the gate %.4f",
							g.family, g.mode, n, seed, i+1, w, g.work)
					}
				}
				if rounds[0] != rounds[1] || work[0] != work[1] {
					t.Errorf("%s %s n=%d seed=%d: %d rounds and %d work at P=1 but %d and %d at P=2",
						g.family, g.mode, n, seed, rounds[0], work[0], rounds[1], work[1])
				}
			}
		}
	}
}
