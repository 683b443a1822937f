package popmatch

import (
	"context"
	"math/rand"
	"testing"
)

// TestSolveIntoZeroAllocSteadyState pins the CSR-kernel contract: after the
// first solve has installed the kernel and warmed the session arena,
// repeated SolveInto calls on the same unit strict instance perform zero
// heap allocations — the loop closures persist, scratch comes from the
// arena, and the result matching is Reset in place.
func TestSolveIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates during solves; allocation exactness is meaningless here")
	}
	ins := solvableInstance(t, 600)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var res Result
	// Warm: install the kernel, size the arena buckets and result buffers.
	for i := 0; i < 3; i++ {
		if err := s.SolveInto(ctx, ins, &res); err != nil {
			t.Fatal(err)
		}
	}
	if !res.Exists {
		t.Fatal("workload instance must be solvable")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.SolveInto(ctx, ins, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveInto steady state allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkSolveIntoSteadyState is the allocation-visible benchmark form of
// the test above (run with -benchmem).
func BenchmarkSolveIntoSteadyState(b *testing.B) {
	ins := solvableInstance(b, 600)
	s := NewSolver(Options{})
	defer s.Close()
	ctx := context.Background()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(ctx, ins, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// tiedAllocInstance is the ties-path allocation workload: enough ties that
// the §V kernel (not the strict kernel) does the work.
func tiedAllocInstance(t testing.TB, n int) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return RandomTies(rng, n, n, 2, 6, 0.3)
}

// TestSolveTiesIntoSteadyStateAllocs pins the unified-engine contract for
// the ties path: after the first solve has installed the engine (with its
// pooled rank-one graph, Hopcroft–Karp/EOU scratch, flat weight table and
// Hungarian working arrays) and warmed the session arena, repeated
// SolveTiesInto calls on the same instance perform zero heap allocations —
// where the pre-engine path rebuilt a bipartite graph and re-made the
// O(n·total) weight rows on every call.
func TestSolveTiesIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates during solves; allocation exactness is meaningless here")
	}
	ins := tiedAllocInstance(t, 300)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var res Result
	for i := 0; i < 3; i++ {
		if err := s.SolveTiesInto(ctx, ins, true, &res); err != nil {
			t.Fatal(err)
		}
	}
	if !res.Exists {
		t.Fatal("workload instance must be solvable in tiesmax mode")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.SolveTiesInto(ctx, ins, true, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("SolveTiesInto steady state allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkSolveTiesIntoSteadyState is the allocation-visible benchmark form
// of the test above (run with -benchmem; the CI allocation canary pins its
// allocs/op).
func BenchmarkSolveTiesIntoSteadyState(b *testing.B) {
	ins := tiedAllocInstance(b, 300)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveTiesInto(ctx, ins, true, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveMaxCardIntoSteadyState is the allocation-visible form of a
// reused solver's maximum-cardinality solve (Algorithm 3: the strict kernel,
// then the §IV switching graph and its cut lifting ladder). The CI
// allocation canary pins its allocs/op.
func BenchmarkSolveMaxCardIntoSteadyState(b *testing.B) {
	ins := solvableInstance(b, 600)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveRequestInto(ctx, ins, Request{Mode: ModeMaxCard}, &res); err != nil {
			b.Fatal(err)
		}
	}
}
