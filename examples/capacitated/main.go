// Capacitated house allocation: school-seat assignment.
//
// Schools (posts) have multiple seats; students (applicants) rank a few
// nearby schools. This is the capacitated variant of the paper's one-sided
// model: it reduces to the unit model by cloning every school into
// seat-many tied posts, solving with the ties machinery, and folding the
// matching back. The example solves a contended district, prints the
// per-school rosters, verifies popularity with the independent margin
// oracle, and shows how total capacity controls feasibility.
//
// Run: go run ./examples/capacitated
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/popmatch"
)

const (
	students = 120
	schools  = 12
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Seats uniform in [4, 14]: roughly enough for everyone, unevenly spread.
	caps := make([]int32, schools)
	total := 0
	for s := range caps {
		caps[s] = int32(4 + rng.Intn(11))
		total += int(caps[s])
	}
	lists := make([][]int32, students)
	for a := range lists {
		perm := rng.Perm(schools)
		k := 2 + rng.Intn(3) // each student ranks 2-4 schools
		l := make([]int32, k)
		for i := 0; i < k; i++ {
			l[i] = int32(perm[i])
		}
		lists[a] = l
	}
	ins, err := popmatch.NewCapacitated(caps, lists)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d students, %d schools, %d seats\n\n", students, schools, total)

	s := popmatch.NewSolver(popmatch.Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	res, err := s.SolveRequest(ctx, ins, popmatch.Request{Mode: popmatch.ModeMaxCard})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Exists {
		log.Fatal("no popular assignment for this draw")
	}
	fmt.Printf("popular assignment found: %d/%d students placed\n", res.Size, students)
	for s := int32(0); int(s) < schools; s++ {
		roster := res.Assignment.AssignedTo(s)
		fmt.Printf("  school %2d: %2d/%2d seats filled\n", s, len(roster), caps[s])
	}
	prof := res.Assignment.Profile(ins)
	fmt.Printf("profile: %d first choices, %d second, %d unplaced\n\n",
		prof[0], prof[1], prof[schools])

	// Independent check: the margin oracle runs on the cloned instance and
	// reports the best vote margin any rival assignment achieves.
	if err := s.VerifyAssignment(ctx, ins, res.Assignment); err != nil {
		log.Fatal(err)
	}
	fmt.Println("margin oracle: assignment is popular")

	// Capacity is the lever: squeeze every school to one seat and the same
	// preferences place far fewer students (or stop admitting a popular
	// assignment at all under heavier contention).
	squeezed := ins.Clone()
	ones := make([]int32, schools)
	for i := range ones {
		ones[i] = 1
	}
	if err := squeezed.SetCapacities(ones); err != nil {
		log.Fatal(err)
	}
	r2, err := s.SolveRequest(ctx, squeezed, popmatch.Request{Mode: popmatch.ModeMaxCard})
	if err != nil {
		log.Fatal(err)
	}
	if r2.Exists {
		fmt.Printf("same district with 1 seat per school: %d/%d students placed\n", r2.Size, students)
	} else {
		fmt.Println("same district with 1 seat per school: no popular assignment")
	}
}
