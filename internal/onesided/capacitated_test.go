package onesided

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
)

// capFixture is a small CHA instance: p0 has two seats everyone wants first.
func capFixture(t *testing.T) *Instance {
	t.Helper()
	ins, err := NewCapacitated(
		[]int32{2, 1},
		[][]int32{{0, 1}, {0, 1}, {0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestCapacityValidation(t *testing.T) {
	if _, err := NewCapacitated([]int32{0, 1}, [][]int32{{0}}); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	ins, err := NewStrict(2, [][]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.SetCapacities([]int32{1}); err == nil {
		t.Fatal("short capacity vector accepted")
	}
	if ins.Capacities != nil {
		t.Fatal("failed SetCapacities mutated the instance")
	}
	if err := ins.SetCapacities([]int32{3, 1}); err != nil {
		t.Fatal(err)
	}
	if ins.UnitCapacity() || ins.TotalCapacity() != 4 || ins.Capacity(0) != 3 {
		t.Fatalf("capacity accessors broken: unit=%v total=%d cap0=%d",
			ins.UnitCapacity(), ins.TotalCapacity(), ins.Capacity(0))
	}
	clone := ins.Clone()
	clone.Capacities[0] = 9
	if ins.Capacities[0] != 3 {
		t.Fatal("Clone shares the capacity vector")
	}
}

func TestCapacityRoundTrip(t *testing.T) {
	ins := capFixture(t)
	var sb strings.Builder
	if err := Write(&sb, ins); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "\nc 2 1\n") {
		t.Fatalf("capacity header missing:\n%s", text)
	}
	again, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if again.Capacities == nil || again.Capacity(0) != 2 || again.Capacity(1) != 1 {
		t.Fatalf("capacities lost in round trip: %v", again.Capacities)
	}

	// Unit instances keep the historical format: no capacity header.
	unit, err := NewStrict(2, [][]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := Write(&sb, unit); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "\nc") {
		t.Fatalf("unit instance got a capacity header:\n%s", sb.String())
	}
}

func TestCapacityHeaderErrors(t *testing.T) {
	for _, src := range []string{
		"posts 2\nc 1\na0: p0 p1\n",                   // wrong count
		"posts 2\nc 0 1\na0: p0 p1\n",                 // zero capacity
		"posts 2\nc -3 1\na0: p0 p1\n",                // negative
		"posts 2\nc 1 x\na0: p0 p1\n",                 // non-numeric
		"posts 2\nc 1 99999999999999999999\na0: p0\n", // overflow
		"posts 2\nc 1 1\nc 1 1\na0: p0\n",             // duplicate
		"posts 2\na0: p0\nc 1 1\n",                    // after lists
	} {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad input %q", src)
		}
	}
	// A labeled applicant line starting with c is still a preference list.
	ins, err := Read(strings.NewReader("posts 2\nc: p0 p1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumApplicants != 1 || ins.Capacities != nil {
		t.Fatalf("label c misparsed: %+v", ins)
	}
}

func TestExpandFoldLift(t *testing.T) {
	ins := capFixture(t)
	unit, cloneOf, firstClone, err := ins.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if unit.NumPosts != 3 || !unit.UnitCapacity() || unit.Capacities != nil {
		t.Fatalf("expanded instance wrong: posts=%d caps=%v", unit.NumPosts, unit.Capacities)
	}
	// p0's two clones are ids 0,1 and tie at rank 1 on every list.
	if cloneOf[0] != 0 || cloneOf[1] != 0 || cloneOf[2] != 1 {
		t.Fatalf("cloneOf wrong: %v", cloneOf)
	}
	if firstClone[0] != 0 || firstClone[1] != 2 || firstClone[2] != 3 {
		t.Fatalf("firstClone wrong: %v", firstClone)
	}
	for a := 0; a < unit.NumApplicants; a++ {
		if len(unit.Lists[a]) != 3 || unit.Ranks[a][0] != 1 || unit.Ranks[a][1] != 1 || unit.Ranks[a][2] != 2 {
			t.Fatalf("applicant %d expanded list wrong: %v / %v", a, unit.Lists[a], unit.Ranks[a])
		}
	}

	// Fold a matching of the expanded instance and lift it back.
	m := NewMatching(unit)
	m.Match(0, 0) // clone of p0
	m.Match(1, 1) // other clone of p0
	m.Match(2, unit.LastResort(2))
	as, err := Fold(ins, unit, cloneOf, m)
	if err != nil {
		t.Fatal(err)
	}
	if as.PostOf[0] != 0 || as.PostOf[1] != 0 || as.PostOf[2] != ins.LastResort(2) {
		t.Fatalf("fold wrong: %v", as.PostOf)
	}
	got := as.AssignedTo(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("AssignedTo(0) = %v", got)
	}
	if len(as.AssignedTo(1)) != 0 {
		t.Fatalf("AssignedTo(1) = %v", as.AssignedTo(1))
	}
	lifted := Lift(ins, unit, firstClone, as)
	if err := lifted.Validate(unit); err != nil {
		t.Fatal(err)
	}
	back, err := Fold(ins, unit, cloneOf, lifted)
	if err != nil {
		t.Fatal(err)
	}
	for a := range as.PostOf {
		if back.PostOf[a] != as.PostOf[a] {
			t.Fatalf("lift/fold not idempotent at %d: %v vs %v", a, back.PostOf, as.PostOf)
		}
	}
}

func TestAssignmentValidateRejectsOverCapacity(t *testing.T) {
	ins := capFixture(t)
	if _, err := AssignmentFromPostOf(ins, []int32{1, 1, 0}); err == nil {
		t.Fatal("over-capacity assignment accepted (p1 has capacity 1)")
	}
	if _, err := AssignmentFromPostOf(ins, []int32{0, 0, 0}); err == nil {
		t.Fatal("over-capacity assignment accepted (p0 has capacity 2)")
	}
	as, err := AssignmentFromPostOf(ins, []int32{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if as.Size(ins) != 3 || !as.ApplicantComplete() {
		t.Fatalf("size/completeness wrong: %d", as.Size(ins))
	}
	prof := as.Profile(ins)
	if prof[0] != 2 || prof[1] != 1 {
		t.Fatalf("profile wrong: %v", prof)
	}
}

func TestAssignmentPopularityBruteAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		ins := RandomSmallCapacitated(rng, 5, 4, 3, trial%2 == 1)
		EnumerateAssignments(ins, func(postOf []int32) bool {
			as, err := AssignmentFromPostOf(ins, postOf)
			if err != nil {
				t.Fatal(err)
			}
			brute := IsPopularAssignmentBrute(ins, as)
			margin, err := UnpopularityMarginAssignmentCtx(exec.Background(), ins, as)
			if err != nil {
				t.Fatal(err)
			}
			oracle := margin <= 0
			if brute != oracle {
				t.Fatalf("trial %d: brute=%v oracle=%v for %v (lists=%v caps=%v)",
					trial, brute, oracle, postOf, ins.Lists, ins.Capacities)
			}
			return trial%7 != 0 // sometimes stop early to exercise that path
		})
	}
}

func TestNonePopularBruteAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		ins := RandomSmall(rng, 4, 3, false)
		if got, want := NonePopularBrute(ins), NonePopularOracle(ins); got != want {
			t.Fatalf("trial %d: brute=%v oracle=%v (lists=%v)", trial, got, want, ins.Lists)
		}
	}
	// The classic infeasible family has no popular matching.
	if !NonePopularBrute(Unsolvable(1)) {
		t.Fatal("Unsolvable(1) should have no popular matching")
	}
	if !NonePopularOracle(Unsolvable(1)) {
		t.Fatal("oracle: Unsolvable(1) should have no popular matching")
	}
	// Capacitated variant: doubling one post's capacity in the Hall-violated
	// gadget makes it solvable again.
	bad := Unsolvable(1)
	if err := bad.SetCapacities([]int32{2, 1}); err != nil {
		t.Fatal(err)
	}
	if none, err := NonePopularAssignmentOracle(bad); err != nil || none {
		t.Fatalf("capacity-2 gadget should be solvable: none=%v err=%v", none, err)
	}
	if NonePopularAssignmentBrute(bad) {
		t.Fatal("brute: capacity-2 gadget should be solvable")
	}
}
