package popmatch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSolveDeltaMatchesFresh drives a mutate→re-match loop through the
// public delta surface and checks every result against a fresh Solve of the
// same (mutated) instance. The two must agree bit-for-bit: the warm path is
// an optimization, never an approximation.
func TestSolveDeltaMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 600
	ins := Solvable(rng, n, n/4, 4)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var sess DeltaSession
	var res Result
	warm := 0
	for step := 0; step < 40; step++ {
		if step > 0 {
			// Single-row edit keeping the Solvable shape: unique first choice
			// (post a) plus random seconds from the extra pool.
			a := rng.Intn(ins.NumApplicants)
			row := []int32{int32(a)}
			seen := map[int32]bool{int32(a): true}
			for len(row) < 4 {
				p := int32(n + rng.Intn(n/4))
				if !seen[p] {
					seen[p] = true
					row = append(row, p)
				}
			}
			if err := ins.SetPreferences(a, row, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SolveDeltaInto(ctx, ins, Request{Mode: ModePopular}, &sess, &res); err != nil {
			t.Fatal(err)
		}
		if sess.Stats().Warm {
			warm++
		}
		want, err := s.Solve(ctx, ins)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exists != want.Exists || res.Size != want.Size {
			t.Fatalf("step %d: delta (exists=%v size=%d) != fresh (exists=%v size=%d)",
				step, res.Exists, res.Size, want.Exists, want.Size)
		}
		if res.Exists && !res.Matching.Equal(want.Matching) {
			t.Fatalf("step %d: delta matching differs from fresh solve", step)
		}
	}
	if warm == 0 {
		t.Fatal("warm path never engaged over 39 single-row edits")
	}
	// Re-query with no intervening mutation: the retained matching is served
	// without solving.
	if err := s.SolveDeltaInto(ctx, ins, Request{Mode: ModePopular}, &sess, &res); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); !st.CacheHit {
		t.Fatalf("unmutated re-query missed the cache: %+v", st)
	}
}

// TestSolveDeltaResultOwnsMatching pins that a returned Result never aliases
// session state: mutating the session afterwards must not disturb a result
// the caller kept.
func TestSolveDeltaResultOwnsMatching(t *testing.T) {
	ins := solvableInstance(t, 300)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var sess DeltaSession
	first, err := s.SolveDelta(ctx, ins, Request{Mode: ModePopular}, &sess)
	if err != nil || !first.Exists {
		t.Fatalf("first delta solve: %+v %v", first, err)
	}
	keep := append([]int32(nil), first.Matching.PostOf...)
	if err := ins.SetPreferences(0, []int32{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveDelta(ctx, ins, Request{Mode: ModePopular}, &sess); err != nil {
		t.Fatal(err)
	}
	for a, p := range keep {
		if first.Matching.PostOf[a] != p {
			t.Fatalf("retained result mutated under the caller at applicant %d", a)
		}
	}
}

// TestSolveDeltaReset pins that Reset drops the warm state: the next solve
// is a full capture, after which warm solving resumes.
func TestSolveDeltaReset(t *testing.T) {
	ins := solvableInstance(t, 300)
	s := NewSolver(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var sess DeltaSession
	if _, err := s.SolveDelta(ctx, ins, Request{Mode: ModePopular}, &sess); err != nil {
		t.Fatal(err)
	}
	sess.Reset()
	if _, err := s.SolveDelta(ctx, ins, Request{Mode: ModePopular}, &sess); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Warm || st.CacheHit {
		t.Fatalf("solve after Reset should be a full capture, got %+v", st)
	}
}

// BenchmarkSolveDeltaWarm times the kernel side of one session re-match: a
// 4-row edit (each row keeps its unique first choice and redraws its four
// seconds) followed by a warm delta solve on one worker. The warm path's
// own work is proportional to the edit; what still grows with n is the
// copy of the retained matching into the caller's result.
func BenchmarkSolveDeltaWarm(b *testing.B) {
	for _, n := range []int{20_000, 200_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			extra := n / 4
			ins := Solvable(rng, n, extra, 5)
			s := NewSolver(Options{Workers: 1})
			defer s.Close()
			ctx := context.Background()
			req := Request{Mode: ModePopular}
			var sess DeltaSession
			var res Result
			if err := s.SolveDeltaInto(ctx, ins, req, &sess, &res); err != nil {
				b.Fatal(err)
			}
			row := make([]int32, 0, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for range 4 {
					a := rng.Intn(n)
					row = append(row[:0], int32(a))
					for len(row) < 5 {
						if p := int32(n + rng.Intn(extra)); !slices.Contains(row, p) {
							row = append(row, p)
						}
					}
					if err := ins.SetPreferences(a, row, nil); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.SolveDeltaInto(ctx, ins, req, &sess, &res); err != nil {
					b.Fatal(err)
				}
				if st := sess.Stats(); !st.Warm && !st.CacheHit {
					b.Fatalf("re-match fell back to a full solve: %+v", st)
				}
			}
		})
	}
}
