// Quickstart: reproduce the paper's worked example end to end.
//
// Builds the Figure 1 instance, shows the reduced lists of Figure 2, runs
// the NC Algorithm 1/2 pipeline, and prints the resulting popular matching —
// which coincides exactly with the one reported in §III-C of the paper —
// plus the independent verification (Theorem 1 characterization and the
// Hungarian unpopularity-margin oracle).
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/popmatch"
)

func main() {
	ins := popmatch.PaperInstance()
	fmt.Println("Instance I (Figure 1): 8 applicants, 9 posts")
	for a := 0; a < ins.NumApplicants; a++ {
		fmt.Printf("  a%d:", a+1)
		for _, p := range ins.Lists[a] {
			fmt.Printf(" p%d", p+1)
		}
		fmt.Println()
	}

	// One Solver serves every call below; Request.Trace asks for the
	// solve's bulk-synchronous cost.
	s := popmatch.NewSolver(popmatch.Options{})
	defer s.Close()
	ctx := context.Background()
	var tr popmatch.SolveTrace
	res, err := s.SolveRequest(ctx, ins, popmatch.Request{Mode: popmatch.ModePopular, Trace: &tr})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Exists {
		log.Fatal("unexpected: the paper's instance admits a popular matching")
	}

	fmt.Println("\nPopular matching (Algorithm 1):")
	for a, p := range res.Matching.PostOf {
		fmt.Printf("  a%d -> p%d\n", a+1, p+1)
	}
	fmt.Printf("\nsize=%d peel-rounds=%d (Lemma 2 bound: ceil(log2 n)+1)\n", res.Size, res.PeelRounds)
	fmt.Printf("parallel cost: %d bulk-synchronous rounds, %d work\n", tr.Rounds, tr.Work)

	if err := s.Verify(ctx, ins, res.Matching); err != nil {
		log.Fatalf("Theorem 1 verification failed: %v", err)
	}
	margin, err := s.UnpopularityMargin(ctx, ins, res.Matching)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: Theorem 1 holds; unpopularity margin = %d (popular iff <= 0)\n", margin)

	// Theorem 9: the instance has exactly 6 popular matchings.
	count := 0
	if _, err := popmatch.EnumerateAll(ins, popmatch.Options{}, func(*popmatch.Matching) bool {
		count++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the instance has %d popular matchings in total (Theorem 9 enumeration)\n", count)
}
