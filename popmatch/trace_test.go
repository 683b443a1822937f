package popmatch

import (
	"context"
	"testing"
)

// TestSolveTrace checks a traced solve fills the per-phase breakdown: the
// strict path must report validate/build-reduced/peel/promote spans whose
// rounds sum to the trace total, with a positive wall time.
func TestSolveTrace(t *testing.T) {
	ins := solvableInstance(t, 600)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()

	var tr SolveTrace
	res, err := s.SolveRequest(ctx, ins, Request{Mode: ModePopular, Trace: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("workload instance must be solvable")
	}
	if tr.DurationNs <= 0 {
		t.Fatalf("trace duration = %d, want > 0", tr.DurationNs)
	}
	if tr.Rounds <= 0 || tr.Work <= 0 {
		t.Fatalf("trace rounds/work = %d/%d, want > 0", tr.Rounds, tr.Work)
	}
	seen := map[string]PhaseTrace{}
	var roundSum int64
	for _, p := range tr.Phases {
		seen[p.Name] = p
		roundSum += p.Rounds
	}
	if roundSum != tr.Rounds {
		t.Fatalf("phase rounds sum %d != total rounds %d", roundSum, tr.Rounds)
	}
	for _, want := range []string{"build-reduced", "peel", "promote"} {
		if p, ok := seen[want]; !ok || p.Rounds == 0 {
			t.Fatalf("missing or empty phase %q in %+v", want, tr.Phases)
		}
	}

	// Re-solving with the same SolveTrace must reflect only the new solve
	// (counters reset per solve, the Phases slice is reused).
	first := tr.Rounds
	if _, err := s.SolveRequest(ctx, ins, Request{Mode: ModePopular, Trace: &tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Rounds != first {
		t.Fatalf("second traced solve reports %d rounds, first reported %d", tr.Rounds, first)
	}
}

// TestSolveDeltaTrace checks the warm delta path attributes splice work.
func TestSolveDeltaTrace(t *testing.T) {
	ins := solvableInstance(t, 400)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var d DeltaSession
	var tr SolveTrace

	if _, err := s.SolveDelta(ctx, ins, Request{Mode: ModePopular, Trace: &tr}, &d); err != nil {
		t.Fatal(err)
	}
	// Mutate one row (keeping the Solvable shape: unique first choice, then
	// extra-pool posts) so the warm splice path runs.
	n := ins.NumApplicants
	if err := ins.SetPreferences(0, []int32{0, int32(n), int32(n + 1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveDelta(ctx, ins, Request{Mode: ModePopular, Trace: &tr}, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Stats().Warm {
		t.Skipf("delta stats %+v: warm path did not engage for this edit", d.Stats())
	}
	var spliceNs int64
	for _, p := range tr.Phases {
		if p.Name == "splice" {
			spliceNs = p.DurationNs
		}
	}
	if spliceNs <= 0 {
		t.Fatalf("warm delta trace has no splice span: %+v", tr.Phases)
	}
}

// TestSolveTracedAllocs pins the overhead contract cheaply and
// deterministically (the n=20k benchmark pair in CI covers timing): a traced
// steady-state strict solve must not allocate beyond the untraced budget.
func TestSolveTracedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates during solves; allocation exactness is meaningless here")
	}
	ins := solvableInstance(t, 600)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var res Result
	var tr SolveTrace
	req := Request{Mode: ModePopular, Trace: &tr}
	for i := 0; i < 3; i++ {
		if err := s.SolveRequestInto(ctx, ins, req, &res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.SolveRequestInto(ctx, ins, req, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("traced SolveRequestInto steady state allocates %.1f times per op, want <= 1", allocs)
	}
}

// overheadInstance is the n=20k workload of the CI overhead canary.
func overheadInstance(b *testing.B) *Instance {
	b.Helper()
	return solvableInstance(b, 20000)
}

// BenchmarkSolveOverheadPlain / BenchmarkSolveOverheadTraced are the CI
// overhead-canary pair: same instance, same solver shape, tracing off vs on.
// The canary asserts the traced variant stays within 5% ns/op of plain and
// at most 1 alloc/op.
func BenchmarkSolveOverheadPlain(b *testing.B) {
	ins := overheadInstance(b)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveRequestInto(ctx, ins, Request{Mode: ModePopular}, &res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveOverheadTraced(b *testing.B) {
	ins := overheadInstance(b)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var res Result
	var tr SolveTrace
	req := Request{Mode: ModePopular, Trace: &tr}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveRequestInto(ctx, ins, req, &res); err != nil {
			b.Fatal(err)
		}
	}
}
