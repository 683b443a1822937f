package popmatch

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/onesided"
)

// manualClone expands a capacitated instance to its unit-capacity equivalent
// using only public constructors — the differential baseline for the solver's
// internal clone reduction. Post p becomes Capacity(p) consecutive unit
// posts, tied at p's rank on every list, in the same canonical order the
// reduction uses (clones of post p precede clones of post p+1).
func manualClone(t *testing.T, ins *Instance) (unit *Instance, cloneOf []int32) {
	t.Helper()
	firstClone := make([]int32, ins.NumPosts+1)
	for p := 0; p < ins.NumPosts; p++ {
		firstClone[p+1] = firstClone[p] + ins.Capacity(int32(p))
	}
	total := int(firstClone[ins.NumPosts])
	cloneOf = make([]int32, total)
	for p := 0; p < ins.NumPosts; p++ {
		for q := firstClone[p]; q < firstClone[p+1]; q++ {
			cloneOf[q] = int32(p)
		}
	}
	lists := make([][]int32, ins.NumApplicants)
	ranks := make([][]int32, ins.NumApplicants)
	for a := range ins.Lists {
		var l, r []int32
		for i, p := range ins.Lists[a] {
			for q := firstClone[p]; q < firstClone[p+1]; q++ {
				l = append(l, q)
				r = append(r, ins.Ranks[a][i])
			}
		}
		lists[a], ranks[a] = l, r
	}
	unit, err := NewWithTies(total, lists, ranks)
	if err != nil {
		t.Fatalf("manual clone invalid: %v", err)
	}
	return unit, cloneOf
}

// foldManual maps a unit matching of the manual clone back to per-applicant
// original post ids.
func foldManual(ins *Instance, unit *Instance, cloneOf []int32, m *Matching) []int32 {
	postOf := make([]int32, ins.NumApplicants)
	for a, q := range m.PostOf {
		switch {
		case q < 0:
			postOf[a] = -1
		case unit.IsLastResort(q):
			postOf[a] = ins.LastResort(a)
		default:
			postOf[a] = cloneOf[q]
		}
	}
	return postOf
}

func equalProfiles(p1, p2 []int) bool {
	if len(p1) != len(p2) {
		return false
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			return false
		}
	}
	return true
}

// TestCapacitatedDifferentialVsManualCloning is the PR's differential
// harness: on >=1000 seeded random capacitated instances, the capacitated
// solve must agree with manual post-cloning through the existing unit API on
// existence, cardinality and profile, on both a fully deterministic 1-worker
// solver and the shared pool. Instances with <=7 applicants are additionally
// checked against the brute-force popularity oracle, for positive answers
// (the returned assignment is popular by exhaustive comparison) and negative
// ones (no applicant-complete assignment is popular).
func TestCapacitatedDifferentialVsManualCloning(t *testing.T) {
	const trials = 1050
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers1", 1},
		{"sharedpool", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSolver(Options{Workers: tc.workers})
			defer s.Close()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(2026))
			bruteChecked, capSeen := 0, 0
			for trial := 0; trial < trials; trial++ {
				var ins *Instance
				if trial%4 != 3 {
					ins = onesided.RandomSmallCapacitated(rng, 7, 4, 3, trial%2 == 0)
				} else {
					ins = RandomCapacitated(rng, 8+rng.Intn(25), 4+rng.Intn(12), 1, 5, 4)
				}
				if !ins.UnitCapacity() {
					capSeen++
				}

				res, err := s.SolveRequest(ctx, ins, Request{Mode: ModePopular})
				if err != nil {
					t.Fatalf("trial %d: capacitated solve: %v", trial, err)
				}

				unit, cloneOf := manualClone(t, ins)
				want, err := s.SolveRequest(ctx, unit, Request{Mode: ModeTies})
				if err != nil {
					t.Fatalf("trial %d: manual clone solve: %v", trial, err)
				}

				if res.Exists != want.Exists {
					t.Fatalf("trial %d: existence mismatch: capacitated=%v manual=%v (lists=%v caps=%v)",
						trial, res.Exists, want.Exists, ins.Lists, ins.Capacities)
				}
				if res.Exists {
					if res.Assignment == nil {
						t.Fatalf("trial %d: capacitated result missing Assignment", trial)
					}
					if err := res.Assignment.Validate(ins); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
					folded := foldManual(ins, unit, cloneOf, want.Matching)
					wantSize := 0
					for _, p := range folded {
						if p >= 0 && !ins.IsLastResort(p) {
							wantSize++
						}
					}
					if res.Size != wantSize {
						t.Fatalf("trial %d: cardinality mismatch: capacitated=%d manual=%d",
							trial, res.Size, wantSize)
					}
					if !equalProfiles(res.Assignment.Profile(ins), ProfileOf(ins, folded)) {
						t.Fatalf("trial %d: profile mismatch: %v vs %v (lists=%v caps=%v)",
							trial, res.Assignment.Profile(ins), ProfileOf(ins, folded),
							ins.Lists, ins.Capacities)
					}
				}

				if ins.NumApplicants <= 7 {
					bruteChecked++
					if res.Exists {
						if !onesided.IsPopularAssignmentBrute(ins, res.Assignment) {
							t.Fatalf("trial %d: brute oracle rejects the assignment (lists=%v caps=%v postOf=%v)",
								trial, ins.Lists, ins.Capacities, res.Assignment.PostOf)
						}
					} else {
						none, err := onesided.NonePopularAssignmentOracle(ins)
						if err != nil {
							t.Fatal(err)
						}
						if !none {
							t.Fatalf("trial %d: solver says none exists, oracle found a popular assignment (lists=%v caps=%v)",
								trial, ins.Lists, ins.Capacities)
						}
					}
				}
			}
			if bruteChecked < trials/2 || capSeen < trials/2 {
				t.Fatalf("suite lost coverage: brute=%d capacitated=%d of %d", bruteChecked, capSeen, trials)
			}
		})
	}
}

// TestAllOnesCapacityKeepsPeelRounds pins that an explicit all-ones capacity
// vector is a strict superset of the historical API: the strict path runs
// underneath and its Algorithm 2 peel-round diagnostic survives.
func TestAllOnesCapacityKeepsPeelRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ins := Solvable(rng, 50, 10, 4)
	base, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.PeelRounds < 0 {
		t.Fatalf("strict path lost its peel rounds: %d", base.PeelRounds)
	}
	withCaps := ins.Clone()
	ones := make([]int32, ins.NumPosts)
	for i := range ones {
		ones[i] = 1
	}
	if err := withCaps.SetCapacities(ones); err != nil {
		t.Fatal(err)
	}
	capRes, err := SolveRequest(withCaps, Request{Mode: ModePopular}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capRes.PeelRounds != base.PeelRounds {
		t.Fatalf("all-ones capacity route lost peel rounds: %d vs %d", capRes.PeelRounds, base.PeelRounds)
	}
}

// TestUnpopularityMarginCapacitated pins that the margin oracle scores
// capacitated instances against capacitated challengers rather than
// silently assuming unit posts.
func TestUnpopularityMarginCapacitated(t *testing.T) {
	// Three applicants all want p0 (2 seats) then p1 (1 seat): filling both
	// seats of p0 plus p1 is popular, which a unit-model margin would deny
	// (two applicants cannot share p0 there).
	ins, err := NewCapacitated([]int32{2, 1}, [][]int32{{0, 1}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	as, err := AssignmentFromPostOf(ins, []int32{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	margin, err := s.UnpopularityMargin(context.Background(), ins, &Matching{PostOf: as.PostOf})
	if err != nil {
		t.Fatal(err)
	}
	if margin > 0 {
		t.Fatalf("solver capacitated margin should be <= 0, got %d", margin)
	}
	// Leaving a seat empty while someone sits at their last resort is
	// beatable: positive margin.
	worse := []int32{0, ins.LastResort(1), 1}
	margin, err = s.UnpopularityMargin(context.Background(), ins, &Matching{PostOf: worse})
	if err != nil {
		t.Fatal(err)
	}
	if margin <= 0 {
		t.Fatalf("wasteful assignment should have positive margin, got %d", margin)
	}
}

// TestCapacitatedGuardedSurfaces pins the error contract: solver surfaces
// without a clone-reduction route must reject capacitated instances rather
// than silently treating capacities as 1.
func TestCapacitatedGuardedSurfaces(t *testing.T) {
	ins, err := NewCapacitated([]int32{2, 1}, [][]int32{{0, 1}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Workers: 1}
	if _, err := SolveRequest(ins, Request{Mode: ModeRankMaximal}, o); err == nil {
		t.Error("RankMaximal accepted a capacitated instance")
	}
	if _, err := SolveRequest(ins, Request{Mode: ModeFair}, o); err == nil {
		t.Error("Fair accepted a capacitated instance")
	}
	w := func(a int32, p int32) int64 { return 1 }
	if _, err := SolveRequest(ins, Request{Mode: ModeMaxWeight, Weights: w}, o); err == nil {
		t.Error("MaxWeight accepted a capacitated instance")
	}
	if _, err := SolveRequest(ins, Request{Mode: ModeMinWeight, Weights: w}, o); err == nil {
		t.Error("MinWeight accepted a capacitated instance")
	}
	if _, err := Count(ins, o); err == nil {
		t.Error("Count accepted a capacitated instance")
	}
	if _, err := EnumerateAll(ins, o, func(*Matching) bool { return true }); err == nil {
		t.Error("EnumerateAll accepted a capacitated instance")
	}

	// The routed surfaces accept it, and verification closes the loop.
	res, err := SolveRequest(ins, Request{Mode: ModePopular}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists || res.Matching != nil || res.Assignment == nil {
		t.Fatalf("capacitated popular result malformed: %+v", res)
	}
	if got := len(res.Assignment.AssignedTo(0)); got != 2 {
		t.Fatalf("p0 should be filled to capacity 2, got %d", got)
	}
	if err := newTestSolver(t, o).VerifyAssignment(context.Background(), ins, res.Assignment); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, o); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveRequest(ins, Request{Mode: ModeTiesMax}, o); err != nil {
		t.Fatal(err)
	}
}
