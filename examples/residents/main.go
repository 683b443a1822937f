// Medical residents: one-sided preferences with ties and contention.
//
// Residents rank hospital programs; several programs are equally acceptable
// to a resident (ties). The example solves the ties variant (§V, AIKM
// characterization), reports how many residents end at their top tier, and
// demonstrates the existence boundary: as more residents chase the same few
// programs, popular matchings stop existing — the structural content of the
// reduced-graph Hall condition in §III.
//
// Run: go run ./examples/residents
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/popmatch"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	s := popmatch.NewSolver(popmatch.Options{})
	defer s.Close()
	ctx := context.Background()

	fmt.Println("ties: 300 residents, 260 programs, tie probability 0.35")
	ins := popmatch.RandomTies(rng, 300, 260, 2, 7, 0.35)
	tiesMax := popmatch.Request{Mode: popmatch.ModeTiesMax}
	res, err := s.SolveRequest(ctx, ins, tiesMax)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Exists {
		fmt.Println("  no popular matching exists for this draw")
	} else {
		topTier := 0
		for a, p := range res.Matching.PostOf {
			if int(p) >= ins.NumPosts {
				continue
			}
			if r, ok := ins.RankOf(a, p); ok && r == 1 {
				topTier++
			}
		}
		fmt.Printf("  matched to real programs: %d/300; at their top tier: %d\n", res.Size, topTier)
	}

	fmt.Println("\nexistence boundary: residents per program slot (strict lists):")
	fmt.Println("  load   solvable/20")
	for _, load := range []float64{0.5, 0.8, 1.0, 1.2, 1.5} {
		programs := 120
		residents := int(float64(programs) * load)
		solvable := 0
		for trial := 0; trial < 20; trial++ {
			strict := popmatch.RandomStrict(rng, residents, programs, 3, 6)
			r, err := s.SolveRequest(ctx, strict, popmatch.Request{Mode: popmatch.ModePopular})
			if err != nil {
				log.Fatal(err)
			}
			if r.Exists {
				solvable++
			}
		}
		fmt.Printf("  %4.1f   %d/20\n", load, solvable)
	}

	// Small sanity run with the full oracle.
	small := popmatch.RandomTies(rng, 12, 10, 1, 4, 0.4)
	sres, err := s.SolveRequest(ctx, small, tiesMax)
	if err != nil {
		log.Fatal(err)
	}
	if sres.Exists {
		margin, err := s.UnpopularityMargin(ctx, small, sres.Matching)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\noracle check on a 12-resident instance: unpopularity margin = %d (<= 0 means popular)\n", margin)
	} else {
		fmt.Println("\noracle check skipped: small draw unsolvable")
	}
}
