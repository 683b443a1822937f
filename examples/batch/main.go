// Batch: the service-shaped API — one reusable Solver, many instances.
//
// A matching service handles heavy traffic of small instances, where
// per-request setup (pool spawning, scratch allocation) would dominate the
// actual solving. This example holds a single popmatch.Solver for the whole
// run, solves 64 instances in a loop over its persistent pool, demonstrates
// deadline-based cancellation, and prints the throughput.
//
// Run: go run ./examples/batch
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/popmatch"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	instances := make([]*popmatch.Instance, 64)
	for i := range instances {
		instances[i] = popmatch.Solvable(rng, 400, 40, 4)
	}

	s := popmatch.NewSolver(popmatch.Options{})
	defer s.Close()

	// Worker goroutines and scratch arenas are reused across all 64 solves.
	req := popmatch.Request{Mode: popmatch.ModePopular}
	start := time.Now()
	matched := 0
	for _, ins := range instances {
		res, err := s.SolveRequest(context.Background(), ins, req)
		if err != nil {
			log.Fatal(err)
		}
		matched += res.Size
	}
	elapsed := time.Since(start)
	fmt.Printf("solved %d instances in %v (%.0f solves/s), %d applicants matched\n",
		len(instances), elapsed.Round(time.Microsecond),
		float64(len(instances))/elapsed.Seconds(), matched)

	// Every solve observes context deadlines at parallel round boundaries:
	// an already-expired context aborts promptly instead of burning a solve.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.SolveRequest(ctx, instances[0], req); errors.Is(err, context.DeadlineExceeded) {
		fmt.Println("expired deadline rejected, as expected:", err)
	} else {
		log.Fatalf("expected DeadlineExceeded, got %v", err)
	}
}
