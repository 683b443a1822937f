package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// mutateRandom applies one random mutation through the onesided delta API,
// keeping the instance valid (rows stay strict; tied instances may lose
// their last tie, which both sides of the differential handle).
func mutateRandom(t *testing.T, rng *rand.Rand, ins *onesided.Instance) {
	t.Helper()
	row := func() []int32 {
		k := 1 + rng.Intn(min(ins.NumPosts, 5))
		perm := rng.Perm(ins.NumPosts)
		r := make([]int32, k)
		for i := range r {
			r[i] = int32(perm[i])
		}
		return r
	}
	switch k := rng.Intn(10); {
	case k == 0 && ins.NumApplicants > 2:
		if _, err := ins.RemoveApplicant(rng.Intn(ins.NumApplicants)); err != nil {
			t.Fatal(err)
		}
	case k == 1:
		if _, err := ins.AddApplicant(row(), nil); err != nil {
			t.Fatal(err)
		}
	case k == 2 && ins.Capacities != nil:
		if err := ins.SetCapacity(int32(rng.Intn(ins.NumPosts)), int32(1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	default:
		if err := ins.SetPreferences(rng.Intn(ins.NumApplicants), row(), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveDeltaDifferentialCorpus drives mutation scripts over every corpus
// instance and asserts, after every mutation and for every mode the instance
// shape supports, that SolveDeltaRequest (one warm DeltaState per instance,
// reused engine, recycled Into) returns results bit-identical to a fresh
// SolveRequest on a fresh engine. It also asserts the warm path actually
// engages somewhere in the corpus — a delta layer that always fell back to
// full solves would pass the equality check trivially.
func TestSolveDeltaDifferentialCorpus(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	arena := exec.NewArena()
	cx := exec.New(exec.Config{Pool: pool, Arena: arena})
	reused := Options{Exec: cx}
	fresh := Options{Pool: pool}

	weights := func(ins *onesided.Instance) WeightFn {
		return func(a, p int32) int64 {
			if ins.IsLastResort(p) {
				return -int64(a % 3)
			}
			return int64((int(p)+2*int(a))%7) - 2
		}
	}

	rng := rand.New(rand.NewSource(20260808))
	warm := 0
	var recycled onesided.Matching
	for i, base := range engineCorpus() {
		ins := base.Clone()
		var st DeltaState
		for step := 0; step < 6; step++ {
			if step > 0 {
				mutateRandom(t, rng, ins)
			}
			w := weights(ins)
			for _, mode := range modesFor(ins) {
				out, err := SolveDeltaRequest(ins, Request{Mode: mode, Weights: w, Into: &recycled}, &st, reused)
				if err != nil {
					t.Fatalf("instance %d step %d mode %s: delta: %v", i, step, mode, err)
				}
				want, err := SolveRequest(ins, Request{Mode: mode, Weights: w}, fresh)
				if err != nil {
					t.Fatalf("instance %d step %d mode %s: fresh: %v", i, step, mode, err)
				}
				if out.Exists != want.Exists {
					t.Fatalf("instance %d step %d mode %s: delta exists=%v fresh=%v",
						i, step, mode, out.Exists, want.Exists)
				}
				if mode == ModePopular && ins.Capacities == nil && st.Stats().Warm {
					warm++
				}
				if !out.Exists {
					continue
				}
				got, exp := out.Matching.PostOf, want.Matching.PostOf
				if ins.Capacities != nil {
					got, exp = out.Assignment.PostOf, want.Assignment.PostOf
				}
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Fatalf("instance %d step %d mode %s: delta %v fresh %v", i, step, mode, got, exp)
				}
				if out.Matching != nil {
					recycled = *out.Matching
				}
			}
			// Re-query without mutating: must serve the cached matching.
			if ins.Capacities == nil && ins.CSR().Strict() {
				again, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused)
				if err != nil {
					t.Fatalf("instance %d step %d: cached re-query: %v", i, step, err)
				}
				if !st.Stats().CacheHit {
					t.Fatalf("instance %d step %d: unmutated re-query missed the cache", i, step)
				}
				want, err := SolveRequest(ins, Request{Mode: ModePopular}, fresh)
				if err != nil {
					t.Fatal(err)
				}
				if again.Exists != want.Exists {
					t.Fatalf("instance %d step %d: cached exists=%v fresh=%v", i, step, again.Exists, want.Exists)
				}
				if again.Exists && !again.Matching.Equal(want.Matching) {
					t.Fatalf("instance %d step %d: cached matching diverged from fresh", i, step)
				}
			}
		}
	}
	if warm == 0 {
		t.Fatal("warm splice path never engaged across the corpus")
	}
}

// blockInstance builds `blocks` disjoint 4-applicant/4-post blocks with
// distinct first choices, so G′ components are tiny and a single-row edit
// stays local.
func blockInstance(t *testing.T, blocks int) *onesided.Instance {
	t.Helper()
	lists := make([][]int32, 0, 4*blocks)
	for b := 0; b < blocks; b++ {
		base := int32(4 * b)
		for i := int32(0); i < 4; i++ {
			lists = append(lists, []int32{base + i, base + (i+1)%4})
		}
	}
	ins, err := onesided.NewStrict(4*blocks, lists)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestSolveDeltaLocalEdit pins the locality contract: on a block-structured
// instance a single-row edit must take the warm path, touch only a few
// applicants, and still match a fresh solve exactly.
func TestSolveDeltaLocalEdit(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cx := exec.New(exec.Config{Pool: pool, Arena: exec.NewArena()})
	reused := Options{Exec: cx}

	const blocks = 50
	ins := blockInstance(t, blocks)
	var st DeltaState
	if _, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Warm {
		t.Fatal("first solve reported warm")
	}

	// Swap applicant 0's two posts: f(0) moves 0 -> 1, post 0 stops being an
	// f-post, so s shifts for the applicants listing post 0 — all inside
	// block 0.
	if err := ins.SetPreferences(0, []int32{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused)
	if err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if !s.Warm {
		t.Fatalf("local edit did not take the warm path: %+v", s)
	}
	if s.Affected > 8 {
		t.Fatalf("local edit affected %d applicants, want <= 8", s.Affected)
	}
	want, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if out.Exists != want.Exists || !out.Matching.Equal(want.Matching) {
		t.Fatal("warm delta result diverged from fresh solve")
	}

	// An edit below s(a) leaves G′ untouched: appending an f-post to a row
	// changes the instance but not (f, s) — must be served as a cache hit.
	if err := ins.SetPreferences(3, []int32{3, 0, 2}, nil); err != nil {
		t.Fatal(err)
	}
	out, err = SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stats().CacheHit || st.Stats().ChangedRows != 0 {
		t.Fatalf("G′-preserving edit not served from cache: %+v", st.Stats())
	}
	want, err = SolveRequest(ins, Request{Mode: ModePopular}, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Matching.Equal(want.Matching) {
		t.Fatal("cache-served matching diverged from fresh solve")
	}
}

// TestSolveDeltaSequentialTrial runs a long single-row-edit sequence on a
// mid-size solvable instance, checking bit-identical results against fresh
// solves at every step and that the warm path carries most of the steps.
func TestSolveDeltaSequentialTrial(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cx := exec.New(exec.Config{Pool: pool, Arena: exec.NewArena()})
	reused := Options{Exec: cx}
	fresh := Options{Pool: pool}

	rng := rand.New(rand.NewSource(31))
	const n = 3000
	ins := onesided.Solvable(rng, n, n/4, 5)
	var st DeltaState
	var into, freshInto onesided.Matching
	warm := 0
	for step := 0; step < 50; step++ {
		if step > 0 {
			// Single-row edit: replace one applicant's seconds, keeping the
			// unique-first-choice structure so the instance stays solvable.
			a := rng.Intn(n)
			row := []int32{int32(a)}
			for len(row) < 4 {
				row = append(row, int32(n+rng.Intn(n/4)))
			}
			if row[1] == row[2] || row[1] == row[3] || row[2] == row[3] {
				continue
			}
			if err := ins.SetPreferences(a, row, nil); err != nil {
				t.Fatal(err)
			}
		}
		out, err := SolveDeltaRequest(ins, Request{Mode: ModePopular, Into: &into}, &st, reused)
		if err != nil {
			t.Fatalf("step %d: delta: %v", step, err)
		}
		if step > 0 && st.Stats().Warm {
			warm++
		}
		want, err := SolveRequest(ins, Request{Mode: ModePopular, Into: &freshInto}, fresh)
		if err != nil {
			t.Fatalf("step %d: fresh: %v", step, err)
		}
		if out.Exists != want.Exists {
			t.Fatalf("step %d: delta exists=%v fresh=%v", step, out.Exists, want.Exists)
		}
		if out.Exists && !out.Matching.Equal(want.Matching) {
			t.Fatalf("step %d: delta matching diverged from fresh", step)
		}
		if out.Matching != nil {
			into = *out.Matching
		}
		if want.Matching != nil {
			freshInto = *want.Matching
		}
	}
	if warm < 30 {
		t.Fatalf("warm path carried only %d/49 edit steps", warm)
	}
}

// TestSolveDeltaAfterInvalidate pins the wholesale-epoch contract: a direct
// in-place mutation followed by Invalidate makes the journal unreplayable,
// so the next delta solve runs full and then warms up again.
func TestSolveDeltaAfterInvalidate(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cx := exec.New(exec.Config{Pool: pool, Arena: exec.NewArena()})
	reused := Options{Exec: cx}

	ins := blockInstance(t, 20)
	var st DeltaState
	if _, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused); err != nil {
		t.Fatal(err)
	}
	ins.Lists[0] = []int32{1, 0}
	ins.Ranks[0] = []int32{1, 2}
	ins.Invalidate()
	out, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Warm || st.Stats().CacheHit {
		t.Fatalf("post-Invalidate solve was not full: %+v", st.Stats())
	}
	want, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Matching.Equal(want.Matching) {
		t.Fatal("post-Invalidate result diverged")
	}
	// And the state it captured is warm-startable again.
	if err := ins.SetPreferences(5, []int32{5, 4}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused); err != nil {
		t.Fatal(err)
	}
	if !st.Stats().Warm && !st.Stats().CacheHit {
		t.Fatalf("delta after re-capture did not warm: %+v", st.Stats())
	}
}

// TestSolveDeltaExistenceFlips drives the warm path across exists=true ->
// false -> true transitions (an affected component failing Hall and then
// recovering) and checks each answer against a fresh solve.
func TestSolveDeltaExistenceFlips(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cx := exec.New(exec.Config{Pool: pool, Arena: exec.NewArena()})
	reused := Options{Exec: cx}

	// Blocks keep everything local; then wedge three applicants onto two
	// posts (the classic Hall violation) inside block 0.
	ins := blockInstance(t, 10)
	var st DeltaState
	if _, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		out, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, reused)
		if err != nil {
			t.Fatalf("%s: delta: %v", label, err)
		}
		want, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{Pool: pool})
		if err != nil {
			t.Fatalf("%s: fresh: %v", label, err)
		}
		if out.Exists != want.Exists {
			t.Fatalf("%s: delta exists=%v fresh=%v", label, out.Exists, want.Exists)
		}
		if out.Exists && !out.Matching.Equal(want.Matching) {
			t.Fatalf("%s: matching diverged", label)
		}
	}
	mustSet := func(a int, posts []int32) {
		t.Helper()
		if err := ins.SetPreferences(a, posts, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(0, []int32{0, 1})
	mustSet(1, []int32{0, 1})
	mustSet(2, []int32{0, 1})
	check("three-on-two wedge")
	mustSet(2, []int32{2, 3})
	check("wedge released")
	check("re-query")
}

// deltaStep solves ins through st and checks the result bit-identical to a
// fresh solve on a fresh engine.
func deltaStep(t *testing.T, label string, ins *onesided.Instance, st *DeltaState, opt Options, pool *par.Pool) {
	t.Helper()
	out, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, st, opt)
	if err != nil {
		t.Fatalf("%s: delta: %v", label, err)
	}
	want, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{Pool: pool})
	if err != nil {
		t.Fatalf("%s: fresh: %v", label, err)
	}
	if out.Exists != want.Exists {
		t.Fatalf("%s: delta exists=%v fresh=%v", label, out.Exists, want.Exists)
	}
	if out.Exists && !out.Matching.Equal(want.Matching) {
		t.Fatalf("%s: delta matching diverged from fresh", label)
	}
}

// TestSolveDeltaFirstChoiceTrial is TestSolveDeltaSequentialTrial for edits
// that move first choices: each step either moves an applicant's first
// choice onto another applicant's (its own post leaves the f-posts) or moves
// a moved applicant back (its post rejoins them). Rows also list other
// applicants' first choices as seconds, so a flip shifts s(b) for rows far
// from the edit. Some steps edit a row twice, so the journal names it twice.
func TestSolveDeltaFirstChoiceTrial(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cx := exec.New(exec.Config{Pool: pool, Arena: exec.NewArena()})
	reused := Options{Exec: cx}

	rng := rand.New(rand.NewSource(37))
	const n, extra = 3000, 750
	ins := onesided.Solvable(rng, n, extra, 5)
	row := func(first int32) []int32 {
		r := []int32{first}
		for len(r) < 4 {
			p := int32(n + rng.Intn(extra))
			if len(r) == 1 {
				p = int32(rng.Intn(n)) // another applicant's first choice
			}
			if !slices.Contains(r, p) {
				r = append(r, p)
			}
		}
		return r
	}
	var st DeltaState
	deltaStep(t, "capture", ins, &st, reused, pool)
	var moved []int
	warm, flips := 0, 0
	const steps = 60
	for step := 1; step <= steps; step++ {
		edits := 1 + rng.Intn(2)
		for range edits {
			if len(moved) > 0 && step%2 == 0 {
				a := moved[len(moved)-1]
				moved = moved[:len(moved)-1]
				if err := ins.SetPreferences(a, row(int32(a)), nil); err != nil {
					t.Fatal(err)
				}
				continue
			}
			a := rng.Intn(n)
			if err := ins.SetPreferences(a, row(int32(rng.Intn(n))), nil); err != nil {
				t.Fatal(err)
			}
			if step%3 == 0 { // the same row again in this batch
				if err := ins.SetPreferences(a, row(int32(rng.Intn(n))), nil); err != nil {
					t.Fatal(err)
				}
			}
			moved = append(moved, a)
		}
		deltaStep(t, fmt.Sprintf("step %d", step), ins, &st, reused, pool)
		s := st.Stats()
		if s.Warm {
			warm++
		}
		if s.ChangedRows > edits {
			flips++ // some s(b) moved outside the edited rows
		}
	}
	if warm < steps*2/3 {
		t.Fatalf("warm path carried only %d/%d first-choice steps", warm, steps)
	}
	if flips == 0 {
		t.Fatal("no step moved s(b) outside its edited rows; the flip rescan went untested")
	}
}

// TestSolveDeltaCancelledWarmSolve cancels a warm solve after it has
// updated the G′ index in place (the cancellation surfaces in the
// sub-solve): it must report context.Canceled, and both the next solve and
// a further warm edit must still equal fresh solves.
func TestSolveDeltaCancelledWarmSolve(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	arena := exec.NewArena()
	live := Options{Exec: exec.New(exec.Config{Pool: pool, Arena: arena})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := Options{Exec: exec.New(exec.Config{Pool: pool, Arena: arena, Context: ctx})}

	ins := blockInstance(t, 50)
	var st DeltaState
	deltaStep(t, "capture", ins, &st, live, pool)
	// Applicant 0 now shares first choice 1 and has no second: the captured
	// 0 → post 0 cannot survive, so a stale answer would show.
	if err := ins.SetPreferences(0, []int32{1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveDeltaRequest(ins, Request{Mode: ModePopular}, &st, dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm solve on a cancelled context: err=%v, want context.Canceled", err)
	}
	deltaStep(t, "after cancel", ins, &st, live, pool)
	if err := ins.SetPreferences(9, []int32{10, 8}, nil); err != nil {
		t.Fatal(err)
	}
	deltaStep(t, "warm edit after cancel", ins, &st, live, pool)
	if !st.Stats().Warm {
		t.Fatalf("edit after the re-capture did not run warm: %+v", st.Stats())
	}
}

// TestSolveDeltaFallbackThenWarm forces a full re-solve through the
// changed-row bound mid-sequence, then checks that single-row edits go warm
// again from the state that fallback captured.
func TestSolveDeltaFallbackThenWarm(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cx := exec.New(exec.Config{Pool: pool, Arena: exec.NewArena()})
	reused := Options{Exec: cx}

	rng := rand.New(rand.NewSource(41))
	const n, extra = 400, 100
	ins := onesided.Solvable(rng, n, extra, 4)
	seconds := func(a int) []int32 {
		r := []int32{int32(a)}
		for len(r) < 4 {
			if p := int32(n + rng.Intn(extra)); !slices.Contains(r, p) {
				r = append(r, p)
			}
		}
		return r
	}
	var st DeltaState
	deltaStep(t, "capture", ins, &st, reused, pool)
	for a := 0; a < n/2; a++ {
		if err := ins.SetPreferences(a, seconds(a), nil); err != nil {
			t.Fatal(err)
		}
	}
	deltaStep(t, "bulk edit", ins, &st, reused, pool)
	if s := st.Stats(); s.Warm || s.ChangedRows <= n/deltaChangedMax+1 {
		t.Fatalf("bulk edit did not fall back through the changed-row bound: %+v", s)
	}
	for step := 0; step < 10; step++ {
		a := rng.Intn(n)
		if err := ins.SetPreferences(a, seconds(a), nil); err != nil {
			t.Fatal(err)
		}
		deltaStep(t, fmt.Sprintf("edit %d after fallback", step), ins, &st, reused, pool)
		if s := st.Stats(); !s.Warm && !s.CacheHit {
			t.Fatalf("edit %d after fallback did not run warm: %+v", step, s)
		}
	}
}
