package popmatch

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The Close contract under concurrency: solves racing Close either complete
// normally or fail with ErrSolverClosed — never a panic, never a deadlock,
// and never a result computed on a torn-down pool. These tests are most
// meaningful under -race (the CI race job runs them).

// closeRaceInstances builds a small workload mix: strict, ties and
// capacitated instances, so the race covers every session-managed path.
func closeRaceInstances(t *testing.T) []*Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	out := []*Instance{
		Solvable(rng, 60, 10, 4),
		RandomTies(rng, 40, 30, 1, 4, 0.3),
		RandomCapacitated(rng, 40, 20, 2, 4, 3),
	}
	return out
}

func TestSolverCloseRacesInFlightSolve(t *testing.T) {
	instances := closeRaceInstances(t)
	for _, workers := range []int{1, 4, 0} { // dedicated pools and the shared pool
		var completed, rejected atomic.Int64
		s := NewSolver(Options{Workers: workers})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				ctx := context.Background()
				for i := 0; ; i++ {
					ins := instances[(g+i)%len(instances)]
					var err error
					if ins.Strict() {
						_, err = s.SolveRequest(ctx, ins, Request{Mode: ModePopular})
					} else {
						_, err = s.SolveRequest(ctx, ins, Request{Mode: ModeTies})
					}
					switch {
					case err == nil:
						completed.Add(1)
					case errors.Is(err, ErrSolverClosed):
						rejected.Add(1)
						return
					default:
						t.Errorf("workers=%d: unexpected error: %v", workers, err)
						return
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(2 * time.Millisecond) // let some solves get in flight
		done := make(chan struct{})
		go func() { s.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: Close did not return (deadlock)", workers)
		}
		wg.Wait()
		if rejected.Load() != 8 {
			t.Fatalf("workers=%d: %d goroutines saw ErrSolverClosed, want 8", workers, rejected.Load())
		}
		t.Logf("workers=%d: %d solves completed before close", workers, completed.Load())
	}
}

func TestSolverCloseIdempotentAndConcurrent(t *testing.T) {
	s := NewSolver(Options{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()
	if _, err := s.SolveRequest(context.Background(), mustStrict(t), Request{Mode: ModePopular}); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("SolveRequest on closed solver: got %v, want ErrSolverClosed", err)
	}
	var res Result
	if err := s.SolveRequestInto(context.Background(), mustStrict(t), Request{Mode: ModePopular}, &res); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("SolveRequestInto on closed solver: got %v, want ErrSolverClosed", err)
	}
	if err := s.Verify(context.Background(), mustStrict(t), nil); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("Verify on closed solver: got %v, want ErrSolverClosed", err)
	}
}

func mustStrict(t *testing.T) *Instance {
	t.Helper()
	ins, err := NewStrict(2, [][]int32{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return ins
}
