package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
	"repro/internal/pseudoforest"
	"repro/internal/seq"
)

// --- E3: Figure 4 ---

func TestPaperFigure4SwitchingGraph(t *testing.T) {
	ins := onesided.PaperFigure1()
	opt := Options{}
	r, err := BuildReduced(ins, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := onesided.PaperFigure1Matching(ins)
	sw, err := BuildSwitching(r, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices: the nine posts p1..p9 (no last resorts occur in G′ here).
	if len(sw.Posts) != 9 {
		t.Fatalf("switching graph has %d vertices, want 9", len(sw.Posts))
	}
	// Edges of Figure 4 (by post id): p1->p2, p2->p4, p4->p3, p3->p1,
	// p5->p2, p7->p6, p8->p7, p9->p7; p6 is the unique sink.
	wantSucc := map[int32]int32{0: 1, 1: 3, 3: 2, 2: 0, 4: 1, 6: 5, 7: 6, 8: 6}
	for v, q := range sw.Posts {
		s := sw.Graph.Succ[v]
		want, hasEdge := wantSucc[q]
		if !hasEdge {
			if s != -1 {
				t.Fatalf("p%d should be a sink, has successor p%d", q+1, sw.Posts[s]+1)
			}
			if q != 5 {
				t.Fatalf("unexpected sink p%d, want only p6", q+1)
			}
			continue
		}
		if s < 0 || sw.Posts[s] != want {
			t.Fatalf("edge from p%d wrong: got %d, want p%d", q+1, s, want+1)
		}
	}
	// One switching cycle: {p1, p2, p4, p3}.
	cycles := sw.Analysis.CycleVertices(sw.Graph)
	if len(cycles) != 1 {
		t.Fatalf("found %d cycles, want 1", len(cycles))
	}
	for _, cyc := range cycles {
		got := make([]int, 0, len(cyc))
		for _, v := range cyc {
			got = append(got, int(sw.Posts[v]))
		}
		sort.Ints(got)
		want := []int{0, 1, 2, 3}
		if len(got) != 4 {
			t.Fatalf("cycle = %v, want posts {p1,p2,p3,p4}", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cycle = %v, want {0,1,2,3}", got)
			}
		}
	}
	// Two switching paths, starting at p8 and p9 (s-posts of the tree
	// component that are not its sink).
	var starts []int32
	for v := range sw.Posts {
		if sw.Analysis.DistToSink[v] > 0 && sw.IsSPostVertex(v) {
			starts = append(starts, sw.Posts[v])
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	if len(starts) != 2 || starts[0] != 7 || starts[1] != 8 {
		t.Fatalf("switching path starts = %v, want [p8 p9]", starts)
	}
}

// --- Lemma 4 structural properties ---

func TestLemma4SwitchingGraphStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	opt := Options{}
	for trial := 0; trial < 60; trial++ {
		ins := onesided.RandomStrict(rng, 5+rng.Intn(80), 5+rng.Intn(60), 1, 6)
		r, err := BuildReduced(ins, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := popularFromReduced(r, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			continue
		}
		sw, err := BuildSwitching(r, res.Matching, opt)
		if err != nil {
			t.Fatal(err)
		}
		an := sw.Analysis
		// (ii) every sink is an unmatched s-post.
		for v, q := range sw.Posts {
			if sw.Graph.Succ[v] == -1 {
				if res.Matching.ApplicantOf[q] >= 0 {
					t.Fatal("matched post is a sink")
				}
				if r.IsF[q] {
					t.Fatal("f-post is a sink (must always be matched)")
				}
			}
		}
		// (iii) each component has a single sink xor a single cycle.
		type compInfo struct{ sinks, cycles int }
		info := map[int32]*compInfo{}
		cycles := an.CycleVertices(sw.Graph)
		for c := range cycles {
			ci := info[c]
			if ci == nil {
				ci = &compInfo{}
				info[c] = ci
			}
			ci.cycles++
		}
		for v := range sw.Posts {
			if sw.Graph.Succ[v] == -1 {
				c := an.Comp[v]
				ci := info[c]
				if ci == nil {
					ci = &compInfo{}
					info[c] = ci
				}
				ci.sinks++
			}
		}
		for c, ci := range info {
			if ci.sinks+ci.cycles != 1 {
				t.Fatalf("component %d has %d sinks and %d cycles", c, ci.sinks, ci.cycles)
			}
		}
	}
}

// TestSwitchPathSumsMatchWalk checks the path weight sums §IV reads off the
// analysis' cut ladder (pathSums, pathSum, Ladder.Jump) against a
// brute-force walk, for every walk the ladder promises: from a tree
// component's vertex up to its sink. Cycle components ride along, since
// pathSums skips them.
func TestSwitchPathSumsMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, p := range []*par.Pool{par.Sequential(), par.NewPool(4)} {
		cx := exec.New(exec.Config{Pool: p})
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(3000)
			// Sinks, long chains and random jumps (which also close cycles).
			succ := make([]int32, n)
			for v := range succ {
				switch r := rng.Float64(); {
				case v == 0 || r < 0.05:
					succ[v] = -1
				case r < 0.6:
					succ[v] = int32(v - 1)
				default:
					u := rng.Intn(n)
					for u == v {
						u = rng.Intn(n)
					}
					succ[v] = int32(u)
				}
			}
			g, err := pseudoforest.New(succ)
			if err != nil {
				t.Fatal(err)
			}
			w := make([]int64, n)
			for v := range w {
				if succ[v] >= 0 {
					w[v] = int64(rng.Intn(21) - 10)
				}
			}
			an := pseudoforest.Analyze(cx, g)
			sums := pathSums(cx, an, w, int64Ops)
			for v := 0; v < n; v++ {
				d := an.DistToSink[v]
				if d < 0 {
					continue
				}
				steps := rng.Intn(d + 1)
				var want int64
				u := v
				for s := 0; s < steps; s++ {
					want += w[u]
					u = int(succ[u])
				}
				if got := pathSum(an.Ladder.Up, sums, int64Ops, v, steps); got != want {
					t.Fatalf("workers=%d n=%d: pathSum(%d,%d) = %d, want %d", p.Workers(), n, v, steps, got, want)
				}
				if got := an.Ladder.Jump(v, steps); got != u {
					t.Fatalf("workers=%d n=%d: Jump(%d,%d) = %d, want %d", p.Workers(), n, v, steps, got, u)
				}
			}
		}
	}
}

// --- E6: Algorithm 3 (maximum cardinality) ---

func TestMaxCardinalityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	opt := Options{}
	for trial := 0; trial < 200; trial++ {
		ins := onesided.RandomSmall(rng, 6, 6, false)
		res, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := onesided.MaxPopularSizeBrute(ins)
		if !res.Exists {
			if want != -1 {
				t.Fatalf("trial %d: max-card says unsolvable, brute says size %d", trial, want)
			}
			continue
		}
		if err := VerifyPopular(ins, res.Matching, opt); err != nil {
			t.Fatalf("trial %d: max-card output not popular: %v", trial, err)
		}
		if got := res.Matching.Size(ins); got != want {
			t.Fatalf("trial %d: max-card size = %d, brute-force max = %d", trial, got, want)
		}
	}
}

func TestMaxCardinalityAgainstSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		ins := onesided.RandomStrict(rng, 20+rng.Intn(150), 10+rng.Intn(100), 1, 6)
		for _, opt := range optPools() {
			res, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, opt)
			if err != nil {
				t.Fatal(err)
			}
			seqM, seqOK, err := seq.MaxCardinality(ins)
			if err != nil {
				t.Fatal(err)
			}
			if res.Exists != seqOK {
				t.Fatalf("trial %d: existence mismatch", trial)
			}
			if !res.Exists {
				continue
			}
			if err := VerifyPopular(ins, res.Matching, opt); err != nil {
				t.Fatal(err)
			}
			if err := VerifyPopular(ins, seqM, opt); err != nil {
				t.Fatal(err)
			}
			if res.Matching.Size(ins) != seqM.Size(ins) {
				t.Fatalf("trial %d: parallel max-card %d != sequential %d",
					trial, res.Matching.Size(ins), seqM.Size(ins))
			}
		}
	}
	// The T3 sizes, where Algorithm 3 has last-resort slack to reclaim.
	opt := Options{}
	for _, n := range []int{1000, 10000, 50000} {
		if n > 10000 && testing.Short() {
			break
		}
		ins, plain := solvableUniform(t, rng, n)
		res, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, opt)
		if err != nil {
			t.Fatal(err)
		}
		seqM, seqOK, err := seq.MaxCardinality(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists || !seqOK {
			t.Fatalf("n=%d: max-card exists=%v, sequential exists=%v on a solvable draw", n, res.Exists, seqOK)
		}
		if err := VerifyPopular(ins, res.Matching, opt); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		size := res.Matching.Size(ins)
		if size != seqM.Size(ins) {
			t.Fatalf("n=%d: parallel max-card %d != sequential %d", n, size, seqM.Size(ins))
		}
		if size < plain.Size(ins) {
			t.Fatalf("n=%d: max-card %d smaller than arbitrary popular %d", n, size, plain.Size(ins))
		}
		t.Logf("n=%d: popular size %d, max-card size %d", n, plain.Size(ins), size)
	}
}

// solvableUniform draws RandomStrict instances with 1.5 posts per applicant
// and lists of 3..7 until one admits a popular matching, and returns it with
// that matching. Above the existence threshold, a draw usually succeeds at
// the first try at any scale.
func solvableUniform(t *testing.T, rng *rand.Rand, n int) (*onesided.Instance, *onesided.Matching) {
	t.Helper()
	for tries := 0; tries < 20; tries++ {
		ins := onesided.RandomStrict(rng, n, n+n/2, 3, 7)
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exists {
			return ins, res.Matching
		}
	}
	t.Fatalf("n=%d: no solvable draw in 20 tries", n)
	return nil, nil
}

func TestMaxCardinalityNeverSmallerThanArbitrary(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	opt := Options{}
	for trial := 0; trial < 60; trial++ {
		ins := onesided.RandomStrict(rng, 10+rng.Intn(60), 5+rng.Intn(40), 1, 5)
		plain, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Exists {
			continue
		}
		mc, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if mc.Matching.Size(ins) < plain.Matching.Size(ins) {
			t.Fatalf("max-card %d smaller than arbitrary popular %d",
				mc.Matching.Size(ins), plain.Matching.Size(ins))
		}
	}
}

// --- Theorem 9: enumeration of all popular matchings ---

func TestTheorem9EnumerationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	opt := Options{}
	for trial := 0; trial < 150; trial++ {
		ins := onesided.RandomSmall(rng, 6, 6, false)
		enumerated := map[string]bool{}
		exists, err := EnumerateAllPopular(ins, opt, func(m *onesided.Matching) bool {
			key := m.Key()
			if enumerated[key] {
				t.Fatalf("trial %d: matching enumerated twice (Theorem 9 bijection broken)", trial)
			}
			enumerated[key] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		brute := onesided.AllPopularBrute(ins)
		if !exists {
			if len(brute) != 0 {
				t.Fatalf("trial %d: enumeration says none, brute found %d", trial, len(brute))
			}
			continue
		}
		if len(enumerated) != len(brute) {
			t.Fatalf("trial %d: enumerated %d popular matchings, brute force %d",
				trial, len(enumerated), len(brute))
		}
		for _, m := range brute {
			if !enumerated[m.Key()] {
				t.Fatalf("trial %d: brute-force popular matching missing from enumeration", trial)
			}
		}
	}
}

func TestPaperExampleHasSixPopularMatchings(t *testing.T) {
	// Figure 4: one switching cycle (apply or not: 2 choices) and one tree
	// component with two switching paths (apply one or none: 3 choices)
	// => 6 popular matchings.
	ins := onesided.PaperFigure1()
	count := 0
	exists, err := EnumerateAllPopular(ins, Options{}, func(m *onesided.Matching) bool {
		count++
		if !onesided.IsPopularBrute(ins, m) {
			t.Fatal("enumerated matching is not popular")
		}
		return true
	})
	if err != nil || !exists {
		t.Fatalf("enumeration failed: %v", err)
	}
	if count != 6 {
		t.Fatalf("enumerated %d popular matchings, want 6", count)
	}
}

// --- E11: optimal popular matchings ---

func TestFairIsMaximumCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	opt := Options{}
	for trial := 0; trial < 60; trial++ {
		ins := onesided.RandomStrict(rng, 5+rng.Intn(40), 3+rng.Intn(30), 1, 5)
		fair, err := SolveRequest(ins, Request{Mode: ModeFair}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !fair.Exists {
			continue
		}
		if err := VerifyPopular(ins, fair.Matching, opt); err != nil {
			t.Fatalf("fair output not popular: %v", err)
		}
		mc, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if fair.Matching.Size(ins) != mc.Matching.Size(ins) {
			t.Fatalf("trial %d: fair size %d != max-card size %d (a fair popular matching is always maximum-cardinality)",
				trial, fair.Matching.Size(ins), mc.Matching.Size(ins))
		}
	}

	// T7's draw: the four §IV-E variants on one n = 4000 instance. Fair is
	// maximum-cardinality; rank-maximal's profile is ≻R-best and fair's
	// ≺F-best among them.
	ins, _ := solvableUniform(t, rng, 4000)
	profiles := map[Mode][]int{}
	sizes := map[Mode]int{}
	for _, mode := range []Mode{ModePopular, ModeMaxCard, ModeRankMaximal, ModeFair} {
		res, err := SolveRequest(ins, Request{Mode: mode}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			t.Fatalf("%s: solvable draw reported unsolvable", mode)
		}
		if err := VerifyPopular(ins, res.Matching, opt); err != nil {
			t.Fatalf("%s output not popular: %v", mode, err)
		}
		profiles[mode] = onesided.Profile(ins, res.Matching)
		sizes[mode] = res.Matching.Size(ins)
		t.Logf("%s: size %d, profile head %v, last resorts %d",
			mode, sizes[mode], profiles[mode][:3], profiles[mode][len(profiles[mode])-1])
	}
	if sizes[ModeFair] != sizes[ModeMaxCard] {
		t.Fatalf("n=4000: fair size %d != max-card size %d", sizes[ModeFair], sizes[ModeMaxCard])
	}
	for mode, p := range profiles {
		if onesided.CompareRankMaximal(p, profiles[ModeRankMaximal]) > 0 {
			t.Fatalf("n=4000: %s profile %v is ≻R-better than rank-maximal %v", mode, p, profiles[ModeRankMaximal])
		}
		if onesided.CompareFair(p, profiles[ModeFair]) > 0 {
			t.Fatalf("n=4000: %s profile %v is ≺F-better than fair %v", mode, p, profiles[ModeFair])
		}
	}
}

func TestRankMaximalAndFairOptimalAmongAllPopular(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	opt := Options{}
	for trial := 0; trial < 120; trial++ {
		ins := onesided.RandomSmall(rng, 6, 6, false)
		rm, err := SolveRequest(ins, Request{Mode: ModeRankMaximal}, opt)
		if err != nil {
			t.Fatal(err)
		}
		fair, err := SolveRequest(ins, Request{Mode: ModeFair}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rm.Exists {
			continue
		}
		rmProf := onesided.Profile(ins, rm.Matching)
		fairProf := onesided.Profile(ins, fair.Matching)
		_, err = EnumerateAllPopular(ins, opt, func(m *onesided.Matching) bool {
			p := onesided.Profile(ins, m)
			if onesided.CompareRankMaximal(p, rmProf) > 0 {
				t.Fatalf("trial %d: a popular matching has ≻R-better profile %v than rank-maximal %v",
					trial, p, rmProf)
			}
			if onesided.CompareFair(p, fairProf) > 0 {
				t.Fatalf("trial %d: a popular matching has ≺F-better profile %v than fair %v",
					trial, p, fairProf)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptimizeCustomWeights(t *testing.T) {
	// Maximize the number of applicants getting their first choice, among
	// popular matchings; compare against enumeration.
	rng := rand.New(rand.NewSource(108))
	opt := Options{}
	weight := func(ins *onesided.Instance) WeightFn {
		return func(a, p int32) int64 {
			if ins.IsLastResort(p) {
				return 0
			}
			if r, _ := ins.RankOf(int(a), p); r == 1 {
				return 1
			}
			return 0
		}
	}
	for trial := 0; trial < 80; trial++ {
		ins := onesided.RandomSmall(rng, 6, 6, false)
		w := weight(ins)
		res, err := SolveRequest(ins, Request{Mode: ModeMaxWeight, Weights: w}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			continue
		}
		score := func(m *onesided.Matching) int64 {
			var s int64
			for a := range m.PostOf {
				s += w(int32(a), m.PostOf[a])
			}
			return s
		}
		got := score(res.Matching)
		best := int64(-1)
		_, err = EnumerateAllPopular(ins, opt, func(m *onesided.Matching) bool {
			if s := score(m); s > best {
				best = s
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != best {
			t.Fatalf("trial %d: maxweight got %d, best popular is %d", trial, got, best)
		}
	}
}

func TestMaxCardinalityMatchesEnumerationOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	opt := Options{}
	for trial := 0; trial < 100; trial++ {
		ins := onesided.RandomSmall(rng, 6, 6, false)
		res, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			continue
		}
		best := -1
		_, err = EnumerateAllPopular(ins, opt, func(m *onesided.Matching) bool {
			if s := m.Size(ins); s > best {
				best = s
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Size(ins) != best {
			t.Fatalf("trial %d: max-card %d, enumeration optimum %d",
				trial, res.Matching.Size(ins), best)
		}
	}
}
