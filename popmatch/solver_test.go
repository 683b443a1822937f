package popmatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
)

// newTestSolver returns a Solver that is closed when the test ends.
func newTestSolver(t testing.TB, o Options) *Solver {
	s := NewSolver(o)
	t.Cleanup(s.Close)
	return s
}

func solvableInstance(t testing.TB, n int) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return Solvable(rng, n, n/4, 5)
}

func TestSolverMatchesOneShot(t *testing.T) {
	ins := solvableInstance(t, 500)
	want, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(Options{})
	defer s.Close()
	got, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular})
	if err != nil {
		t.Fatal(err)
	}
	if got.Exists != want.Exists || got.Size != want.Size {
		t.Fatalf("solver result (exists=%v size=%d) != one-shot (exists=%v size=%d)",
			got.Exists, got.Size, want.Exists, want.Size)
	}
	if err := s.Verify(context.Background(), ins, got.Matching); err != nil {
		t.Fatalf("solver matching not popular: %v", err)
	}
}

func TestSolverPoolReuseDeterministic(t *testing.T) {
	// Workers: 1 is fully sequential: repeated solves on the same persistent
	// pool (and recycled arenas) must be bit-identical — scratch reuse must
	// not leak state between solves.
	ins := solvableInstance(t, 800)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	first, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		got, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matching.PostOf) != len(first.Matching.PostOf) {
			t.Fatal("matching size changed between solves")
		}
		for a := range got.Matching.PostOf {
			if got.Matching.PostOf[a] != first.Matching.PostOf[a] {
				t.Fatalf("round %d: applicant %d matched to %d, first solve had %d",
					round, a, got.Matching.PostOf[a], first.Matching.PostOf[a])
			}
		}
	}
}

func TestSolverCancellation(t *testing.T) {
	// A pre-cancelled context must fail fast with context.Canceled and leak
	// no goroutines, even on a large instance.
	ins := solvableInstance(t, 20000)
	s := NewSolver(Options{Workers: 4})
	defer s.Close()
	// Warm the pool so its (persistent, expected) workers are excluded from
	// the leak accounting.
	if _, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := s.SolveRequest(ctx, ins, Request{Mode: ModePopular})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled solve took %v, want prompt return", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines grew from %d to %d after cancelled solve", before, got)
	}
	// The solver must remain usable after a cancelled solve.
	res, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular})
	if err != nil || !res.Exists {
		t.Fatalf("solve after cancellation: res=%+v err=%v", res, err)
	}
}

func TestSolverCancellationTies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ins := RandomTies(rng, 300, 300, 2, 6, 0.3)
	s := NewSolver(Options{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveRequest(ctx, ins, Request{Mode: ModeTiesMax}); !errors.Is(err, context.Canceled) {
		t.Fatalf("tiesmax err = %v, want context.Canceled", err)
	}
}

func TestSolverConcurrentUse(t *testing.T) {
	ins := solvableInstance(t, 400)
	s := NewSolver(Options{})
	defer s.Close()
	want, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				got, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular})
				if err != nil {
					done <- err
					return
				}
				if got.Size != want.Size {
					done <- errors.New("concurrent solve diverged")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkSolverReuse measures repeated solves on one persistent Solver
// (pool + arena reuse); compare its allocs/op with BenchmarkOneShotSolve to
// see what the execution-context layer saves per request.
func BenchmarkSolverReuse(b *testing.B) {
	ins := solvableInstance(b, 2000)
	s := NewSolver(Options{})
	defer s.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveRequest(ctx, ins, Request{Mode: ModePopular}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneShotSolve is the pre-Solver path: every call assembles a fresh
// execution context with no arena.
func BenchmarkOneShotSolve(b *testing.B) {
	ins := solvableInstance(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolverUnpopularityMarginCancellable(t *testing.T) {
	ins := solvableInstance(t, 400)
	s := NewSolver(Options{})
	defer s.Close()
	res, err := s.SolveRequest(context.Background(), ins, Request{Mode: ModePopular})
	if err != nil || !res.Exists {
		t.Fatalf("setup solve: %+v %v", res, err)
	}
	margin, err := s.UnpopularityMargin(context.Background(), ins, res.Matching)
	if err != nil {
		t.Fatal(err)
	}
	if margin > 0 {
		t.Fatalf("oracle rejects a verified-popular matching: margin=%d", margin)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.UnpopularityMargin(ctx, ins, res.Matching); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestUnpopularityMarginRejectsNonMatchings pins that the margin oracle
// checks the caller's vector: a post off the applicant's list, a short
// vector, two applicants on one unit post and an over-capacity post are
// errors, not panics or a verdict on something that is not a matching.
func TestUnpopularityMarginRejectsNonMatchings(t *testing.T) {
	mustIns := func(ins *Instance, err error) *Instance {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	shortList := mustIns(NewStrict(2, [][]int32{{0}, {0, 1}}))
	square := mustIns(NewStrict(2, [][]int32{{0, 1}, {0, 1}}))
	capac := mustIns(NewCapacitated([]int32{2, 1}, [][]int32{{0, 1}, {0, 1}, {0, 1}}))
	s := newTestSolver(t, Options{Workers: 1})
	for _, c := range []struct {
		name   string
		ins    *Instance
		postOf []int32
	}{
		{"post off the list", shortList, []int32{1, 0}},
		{"short vector", square, []int32{0}},
		{"two applicants on one post", square, []int32{0, 0}},
		{"over capacity", capac, []int32{0, 0, 0}},
	} {
		if margin, err := s.UnpopularityMargin(context.Background(), c.ins, &Matching{PostOf: c.postOf}); err == nil {
			t.Errorf("%s: margin %d with a nil error", c.name, margin)
		}
	}
	// A valid matching of the same instance still gets its verdict.
	if margin, err := s.UnpopularityMargin(context.Background(), square, &Matching{PostOf: []int32{0, 1}}); err != nil || margin > 0 {
		t.Fatalf("valid popular matching: margin %d, %v", margin, err)
	}
}

// BenchmarkStrictWorkers times a reused solver's popular solve at two
// sizes and two worker counts each, and fails if a worker count returns a
// different matching from a sequential solve. CI gates both pairs:
//   - n = 2·10⁵ at 1 and 4 workers: 4 workers must be at least 1.25x
//     faster, on runners with 4 or more CPUs;
//   - n = 2,000, the serving benchmark's size, at 1 worker and the default
//     pool: the default pool must be no more than 10% slower, on every
//     runner.
func BenchmarkStrictWorkers(b *testing.B) {
	cases := []struct {
		n, posts, maxLen int
		workers          []int // 0 is the default pool
	}{
		{200_000, 50_000, 5, []int{1, 4}},
		{2000, 501, 4, []int{1, 0}},
	}
	req := Request{Mode: ModePopular}
	for _, c := range cases {
		ins := Solvable(rand.New(rand.NewSource(7)), c.n, c.posts, c.maxLen)
		want, err := SolveRequest(ins, req, Options{Workers: 1})
		if err != nil || !want.Exists {
			b.Fatalf("n=%d reference solve: exists=%v err=%v", c.n, want.Exists, err)
		}
		for _, w := range c.workers {
			name := strconv.Itoa(w)
			if w == 0 {
				name = "default"
			}
			b.Run(fmt.Sprintf("n=%d/%s", c.n, name), func(b *testing.B) {
				s := NewSolver(Options{Workers: w})
				defer s.Close()
				ctx := context.Background()
				var res Result
				if err := s.SolveRequestInto(ctx, ins, req, &res); err != nil { // warm the session
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.SolveRequestInto(ctx, ins, req, &res); err != nil {
						b.Fatal(err)
					}
				}
				if !slices.Equal(res.Matching.PostOf, want.Matching.PostOf) {
					b.Fatalf("n=%d workers=%s: matching differs from workers=1", c.n, name)
				}
			})
		}
	}
}
