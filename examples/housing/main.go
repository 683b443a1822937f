// Housing allocation: the paper's §I motivation.
//
// Families (applicants) rank government-owned houses (posts); demand skews
// toward a few desirable houses. Popular matchings are a fragile resource:
// as contention grows, they stop existing — Algorithm 1 decides this in
// polylog parallel rounds. The example shows the feasibility phase
// transition, then compares the §IV variants (plain popular, maximum-
// cardinality, rank-maximal, fair) on solvable draws, including their
// §IV-E profiles and last-resort counts.
//
// Run: go run ./examples/housing
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/popmatch"
)

const (
	families = 300
	houses   = 450
)

// solver is the one Solver every solve of the example shares.
var solver = popmatch.NewSolver(popmatch.Options{})

// solve runs one mode on the shared Solver.
func solve(ins *popmatch.Instance, mode popmatch.Mode) popmatch.Result {
	r, err := solver.SolveRequest(context.Background(), ins, popmatch.Request{Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	return r
}

// solvableDraw retries a generator until Algorithm 1 reports existence.
func solvableDraw(gen func() *popmatch.Instance) (*popmatch.Instance, popmatch.Result) {
	for tries := 0; tries < 500; tries++ {
		ins := gen()
		if r := solve(ins, popmatch.ModePopular); r.Exists {
			return ins, r
		}
	}
	log.Fatal("no solvable draw in 500 tries; lower the contention")
	return nil, popmatch.Result{}
}

func main() {
	defer solver.Close()
	rng := rand.New(rand.NewSource(2020))

	fmt.Printf("housing allocation: %d families, %d houses\n\n", families, houses)
	fmt.Println("feasibility phase transition (list length vs skew):")
	fmt.Println("  lists   skew   solvable/20")
	for _, cfg := range []struct {
		minLen, maxLen int
		skew           float64
	}{
		{3, 7, 0.0}, {3, 7, 0.4}, {3, 7, 0.8},
		{2, 4, 0.0}, {2, 4, 0.4}, {2, 4, 0.8},
	} {
		solvable := 0
		for i := 0; i < 20; i++ {
			var ins *popmatch.Instance
			if cfg.skew == 0 {
				ins = popmatch.RandomStrict(rng, families, houses, cfg.minLen, cfg.maxLen)
			} else {
				ins = popmatch.RandomZipf(rng, families, houses, cfg.maxLen, cfg.skew)
			}
			if solve(ins, popmatch.ModePopular).Exists {
				solvable++
			}
		}
		fmt.Printf("  %d-%d    %4.1f   %d/20\n", cfg.minLen, cfg.maxLen, cfg.skew, solvable)
	}

	fmt.Println("\nvariant comparison over 10 solvable draws:")
	fmt.Printf("  %-18s %12s %12s %12s\n", "variant", "avg size", "avg rank-1", "avg last-res")
	type acc struct {
		size, rank1, lastRes int
	}
	sums := map[string]*acc{}
	order := []string{"popular", "max-cardinality", "rank-maximal", "fair"}
	for _, name := range order {
		sums[name] = &acc{}
	}
	const draws = 10
	for d := 0; d < draws; d++ {
		ins, plain := solvableDraw(func() *popmatch.Instance {
			return popmatch.RandomStrict(rng, families, houses, 3, 7)
		})
		mc := solve(ins, popmatch.ModeMaxCard)
		rm := solve(ins, popmatch.ModeRankMaximal)
		fair := solve(ins, popmatch.ModeFair)
		if fair.Size != mc.Size {
			log.Fatalf("fair size %d != max-card size %d", fair.Size, mc.Size)
		}
		for name, r := range map[string]popmatch.Result{
			"popular": plain, "max-cardinality": mc, "rank-maximal": rm, "fair": fair,
		} {
			if err := solver.Verify(context.Background(), ins, r.Matching); err != nil {
				log.Fatalf("%s not popular: %v", name, err)
			}
			prof := popmatch.Profile(ins, r.Matching)
			s := sums[name]
			s.size += r.Size
			s.rank1 += prof[0]
			s.lastRes += prof[len(prof)-1]
		}
	}
	for _, name := range order {
		s := sums[name]
		fmt.Printf("  %-18s %12.1f %12.1f %12.1f\n", name,
			float64(s.size)/draws, float64(s.rank1)/draws, float64(s.lastRes)/draws)
	}
	fmt.Println("\nall outputs verified popular (Theorem 1); fair always matches max-cardinality size.")
}
