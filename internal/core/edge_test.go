package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/onesided"
	"repro/internal/par"
)

// Edge-case instances exercising unusual reduced-graph shapes.

func TestEdgeCaseShapes(t *testing.T) {
	opt := Options{}
	cases := []struct {
		name       string
		posts      int
		lists      [][]int32
		wantExists bool
	}{
		{
			// Every post is an f-post, so s(a) = l(a) for everyone; the
			// reduced graph pairs each applicant with their own last
			// resort and the f-stars must resolve.
			name:  "all posts are f-posts",
			posts: 3,
			lists: [][]int32{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}},
			// Reduced: a_i - p_i (f) and a_i - l_i (s); always solvable.
			wantExists: true,
		},
		{
			name:       "single-entry lists all distinct",
			posts:      3,
			lists:      [][]int32{{0}, {1}, {2}},
			wantExists: true,
		},
		{
			name:       "single-entry lists colliding",
			posts:      1,
			lists:      [][]int32{{0}, {0}, {0}},
			wantExists: true, // one gets p0, two take last resorts; f-post matched
		},
		{
			name:       "massive contention",
			posts:      2,
			lists:      [][]int32{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}},
			wantExists: false,
		},
		{
			name:       "two applicants one post",
			posts:      1,
			lists:      [][]int32{{0}, {0}},
			wantExists: true,
		},
		{
			// A path-shaped reduced graph with both endpoints degree 1.
			name:       "shared f distinct s",
			posts:      3,
			lists:      [][]int32{{0, 1}, {0, 2}},
			wantExists: true,
		},
	}
	for _, c := range cases {
		ins, err := onesided.NewStrict(c.posts, c.lists)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Exists != c.wantExists {
			t.Fatalf("%s: exists=%v, want %v", c.name, res.Exists, c.wantExists)
		}
		brute := len(onesided.AllPopularBrute(ins)) > 0
		if res.Exists != brute {
			t.Fatalf("%s: disagrees with brute force (%v)", c.name, brute)
		}
		if res.Exists {
			if err := VerifyPopular(ins, res.Matching, opt); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !onesided.IsPopularBrute(ins, res.Matching) {
				t.Fatalf("%s: output not popular", c.name)
			}
		}
	}
}

// TestSolverDeterministicAcrossWorkers pins down that every solver's output
// is a function of the instance alone, not of goroutine scheduling: the
// peeling matches are structurally forced, cycle matching uses canonical
// leaders, promotion picks the smallest applicant, and switch selection
// breaks ties deterministically.
//
// It is the corpus-wide differential form of the determinism contract:
// every engine mode defined on every corpus instance (strict, tied,
// capacitated — see engineCorpus/modesFor) must produce a bit-identical
// result at workers 1, 2 and 8. The CI race job runs it under -race, so a
// scheduling-dependent write anywhere in the parallel kernels surfaces as
// either a diff here or a race report.
func TestSolverDeterministicAcrossWorkers(t *testing.T) {
	pools := []*par.Pool{par.Sequential(), par.NewPool(2), par.NewPool(8)}
	defer pools[1].Close()
	defer pools[2].Close()
	w := func(a, p int32) int64 { return int64((int(p)+3*int(a))%5) - 1 }
	for i, ins := range engineCorpus() {
		for _, mode := range modesFor(ins) {
			var refExists bool
			var ref []int32
			for pi, pool := range pools {
				out, err := SolveRequest(ins, Request{Mode: mode, Weights: w}, Options{Pool: pool})
				if err != nil {
					t.Fatalf("instance %d mode %s workers %d: %v", i, mode, pool.Workers(), err)
				}
				var got []int32
				if out.Exists {
					got = out.Matching.PostOf
					if ins.Capacities != nil {
						if out.Assignment == nil {
							t.Fatalf("instance %d mode %s workers %d: capacitated result without assignment",
								i, mode, pool.Workers())
						}
						got = out.Assignment.PostOf
					}
				}
				if pi == 0 {
					refExists, ref = out.Exists, append([]int32(nil), got...)
					continue
				}
				if out.Exists != refExists {
					t.Fatalf("instance %d mode %s: existence varies with workers (%d: %v, 1: %v)",
						i, mode, pool.Workers(), out.Exists, refExists)
				}
				for a := range ref {
					if got[a] != ref[a] {
						t.Fatalf("instance %d mode %s: output differs between workers %d and 1 at applicant %d",
							i, mode, pool.Workers(), a)
					}
				}
			}
		}
	}
	// Larger instances (the corpus instances are tiny). Six random strict
	// ones, a tied one for the §V kernel, plus the ring and the chain (see
	// switchRing): one long switching cycle, and one switching path that
	// takes the cut lifting ladder to full depth. The rank-maximal weights
	// of the ring and the chain carry n·log₂(n) bits each, too many at this
	// size, so they run the int64 modes only. Their loops are shorter than
	// par.Grain's break-even, so they run as one chunk at every worker
	// count. The last instance, with 2¹⁷ applicants and a popular matching,
	// is long enough that its applicant-, post- and dart-indexed loops are
	// split across workers.
	if !testing.Short() {
		type large struct {
			name  string
			ins   *onesided.Instance
			modes []Mode
		}
		var cases []large
		rng := rand.New(rand.NewSource(151))
		for trial := 0; trial < 5; trial++ {
			ins := onesided.RandomStrict(rng, 5000+rng.Intn(3000), 3000+rng.Intn(2000), 1, 6)
			cases = append(cases, large{fmt.Sprintf("trial %d", trial), ins, []Mode{ModePopular, ModeMaxCard, ModeRankMaximal}})
		}
		// Those five have no popular matching; this one has.
		cases = append(cases, large{"solvable", onesided.RandomStrict(rng, 6000, 6000, 1, 4),
			[]Mode{ModePopular, ModeMaxCard, ModeRankMaximal}})
		cases = append(cases, large{"ties", onesided.RandomTies(rng, 2000, 2000, 2, 6, 0.3),
			[]Mode{ModeTies, ModeTiesMax}})
		cases = append(cases,
			large{"ring", switchRing(t, 5000, false), []Mode{ModePopular, ModeMaxCard}},
			large{"chain", switchRing(t, 5000, true), []Mode{ModePopular, ModeMaxCard}})
		const split = 1 << 17
		if g := par.Grain(split, 8); g >= split {
			t.Fatalf("par.Grain(%d, 8) = %d: the instance below would run every loop as one chunk", split, g)
		}
		cases = append(cases, large{"split", onesided.RandomStrict(rng, split, split, 1, 4),
			[]Mode{ModePopular, ModeMaxCard}})
		for _, c := range cases {
			for _, mode := range c.modes {
				var refExists bool
				var ref []int32
				for pi, pool := range pools {
					out, err := SolveRequest(c.ins, Request{Mode: mode}, Options{Pool: pool})
					if err != nil {
						t.Fatal(err)
					}
					var got []int32
					if out.Exists {
						got = out.Matching.PostOf
					}
					if pi == 0 {
						refExists, ref = out.Exists, append([]int32(nil), got...)
						continue
					}
					if out.Exists != refExists {
						t.Fatalf("%s mode %s: existence varies with workers", c.name, mode)
					}
					for a := range ref {
						if got[a] != ref[a] {
							t.Fatalf("%s mode %s: output differs between worker counts at applicant %d", c.name, mode, a)
						}
					}
				}
			}
		}
	}
}

// TestPeelingHandlesLastResortChains covers the shape where many last
// resorts participate: every last resort is a degree-1 s-post, so the first
// peeling round matches a large fraction of applicants immediately.
func TestPeelingHandlesLastResortChains(t *testing.T) {
	opt := Options{}
	// n applicants all sharing the same first choice with no alternatives:
	// f-star of degree n plus n last-resort pendants.
	n := 50
	lists := make([][]int32, n)
	for i := range lists {
		lists[i] = []int32{0}
	}
	ins, err := onesided.NewStrict(1, lists)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("star with last resorts must be solvable")
	}
	if err := VerifyPopular(ins, res.Matching, opt); err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size(ins) != 1 {
		t.Fatalf("size = %d, want exactly 1 (only p0 is real)", res.Matching.Size(ins))
	}
	if res.Matching.ApplicantOf[0] < 0 {
		t.Fatal("the unique f-post is unmatched")
	}
}

// TestHugeInstanceSmoke pushes the engine through large instances to catch
// quadratic blowups and overflow issues: Algorithm 1 at a million
// applicants, and the §V ties path (ties, tiesmax, and capacitated popular on
// the clone expansion) at 10⁵ applicants. The ties path is linear in the
// edge count, so each of those solves, the expansion included, may allocate
// at most tiesBytesPerEdge bytes per edge of the instance it solved (the
// clone expansion for the capacitated case); a dense n₁ × (n₂+n₁) int64
// table would need 2·10⁵ to 4·10⁵ bytes per edge here.
func TestHugeInstanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large smoke test")
	}
	rng := rand.New(rand.NewSource(152))
	ins := onesided.RandomStrict(rng, 1_000_000, 1_000_000, 1, 4)
	res, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists {
		if err := VerifyPopular(ins, res.Matching, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	bound := par.Iterations(ins.NumApplicants+ins.TotalPosts()) + 1
	if res.Peel.Rounds > bound {
		t.Fatalf("Lemma 2 violated at scale: %d > %d", res.Peel.Rounds, bound)
	}

	const n, tiesBytesPerEdge = 100_000, 256
	for _, tc := range []struct {
		name string
		ins  *onesided.Instance
		mode Mode
	}{
		{"ties", onesided.RandomTies(rng, n, n, 2, 6, 0.3), ModeTies},
		{"tiesmax", onesided.RandomTies(rng, n, n, 2, 6, 0.3), ModeTiesMax},
		{"capacitated", onesided.RandomCapacitated(rng, n, n/2, 2, 6, 3), ModePopular},
	} {
		tc.ins.CSR()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := SolveRequest(tc.ins, Request{Mode: tc.mode}, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Exists {
			t.Fatalf("%s: no popular matching", tc.name)
		}
		solved := tc.ins
		if tc.ins.Capacities != nil {
			exp, err := tc.ins.Expanded()
			if err != nil {
				t.Fatal(err)
			}
			solved = exp.Unit
			if err := res.Assignment.Validate(tc.ins); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !res.Matching.ApplicantComplete() {
			t.Fatalf("%s: matching is not applicant-complete", tc.name)
		}
		if err := res.Matching.Validate(solved); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		edges := len(solved.CSR().Post)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d edges, %d bytes allocated (%.0f per edge)", tc.name, edges, got, float64(got)/float64(edges))
		if got > uint64(tiesBytesPerEdge*edges) {
			t.Errorf("%s: solve allocated %d bytes for %d edges, want <= %d per edge",
				tc.name, got, edges, tiesBytesPerEdge)
		}
	}
}
