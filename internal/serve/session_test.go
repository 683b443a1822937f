package serve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/popmatch"
)

func TestSessionLifecycleAndDeltaCorrectness(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	snap, _, err := s.Upload(strictInstance(t, 41, 200))
	if err != nil {
		t.Fatal(err)
	}

	info, err := s.CreateSession(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, "s-") || info.Source != snap.ID || info.Epoch != 0 {
		t.Fatalf("session info: %+v", info)
	}
	if got := len(s.Sessions()); got != 1 {
		t.Fatalf("%d live sessions, want 1", got)
	}
	if _, err := s.CreateSession("deadbeef"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("create from unknown instance: %v", err)
	}

	// An independent solver for the ground truth; the session's instance is
	// reachable via the session table for cross-checking.
	direct := popmatch.NewSolver(popmatch.Options{Workers: 1})
	defer direct.Close()
	check := func(step string, out *Outcome) {
		t.Helper()
		sess, _ := s.sessions.get(info.ID)
		want, err := direct.Solve(ctx, sess.ins.Clone())
		if err != nil {
			t.Fatalf("%s: ground-truth solve: %v", step, err)
		}
		if out.Exists != want.Exists || out.Size != want.Size {
			t.Fatalf("%s: session (exists=%v size=%d) != fresh (exists=%v size=%d)",
				step, out.Exists, out.Size, want.Exists, want.Size)
		}
		for a, p := range want.Matching.PostOf {
			if out.PostOf[a] != p {
				t.Fatalf("%s: applicant %d matched to %d, fresh solve says %d", step, a, out.PostOf[a], p)
			}
		}
	}

	// First solve: a full capture, then a cache hit at the same epoch.
	out, meta, err := s.SolveSession(ctx, info.ID, ModePopular)
	if err != nil || meta.Cached || meta.Warm {
		t.Fatalf("first session solve: meta=%+v err=%v", meta, err)
	}
	check("initial", out)
	if _, meta, err = s.SolveSession(ctx, info.ID, ModePopular); err != nil || !meta.Cached {
		t.Fatalf("re-query at same epoch: meta=%+v err=%v", meta, err)
	}

	// Mutate: a single-row edit (Solvable shape: unique first choice = own
	// post, seconds from the extra pool) keeps the delta local, so the
	// re-match must take the warm path and still agree with a fresh solve.
	mutInfo, applied, err := s.MutateSession(info.ID, []Mutation{
		{Op: "set_preferences", Applicant: 3, Posts: []int32{3, 200, 201}},
	})
	if err != nil || len(applied) != 1 {
		t.Fatalf("mutate: applied=%v err=%v", applied, err)
	}
	if mutInfo.Epoch == 0 || mutInfo.Mutations != 1 {
		t.Fatalf("post-mutation info: %+v", mutInfo)
	}
	out, meta, err = s.SolveSession(ctx, info.ID, ModePopular)
	if err != nil || meta.Cached {
		t.Fatalf("post-mutation solve: meta=%+v err=%v", meta, err)
	}
	if !meta.Warm {
		t.Fatalf("single-row edit did not take the warm path: %+v", meta)
	}
	if meta.Epoch != mutInfo.Epoch {
		t.Fatalf("solve epoch %d, session epoch %d", meta.Epoch, mutInfo.Epoch)
	}
	check("after set_preferences", out)

	// Shape mutations fall back to a full solve but stay correct.
	if _, applied, err = s.MutateSession(info.ID, []Mutation{
		{Op: "add_applicant", Posts: []int32{0, 1, 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if applied[0].Applicant != 200 {
		t.Fatalf("add_applicant assigned id %d, want 200", applied[0].Applicant)
	}
	out, meta, err = s.SolveSession(ctx, info.ID, ModePopular)
	if err != nil || meta.Warm {
		t.Fatalf("post-add solve: meta=%+v err=%v", meta, err)
	}
	check("after add_applicant", out)

	if _, applied, err = s.MutateSession(info.ID, []Mutation{
		{Op: "remove_applicant", Applicant: 5},
	}); err != nil {
		t.Fatal(err)
	}
	if applied[0].Applicant != 200 { // the (old) last applicant moved into slot 5
		t.Fatalf("remove_applicant moved id %d, want 200", applied[0].Applicant)
	}
	out, _, err = s.SolveSession(ctx, info.ID, ModePopular)
	if err != nil {
		t.Fatal(err)
	}
	check("after remove_applicant", out)

	// Other modes are servable against the mutated instance too.
	out, meta, err = s.SolveSession(ctx, info.ID, ModeMaxCard)
	if err != nil || meta.Cached || meta.Warm {
		t.Fatalf("maxcard session solve: meta=%+v err=%v", meta, err)
	}
	if !out.Exists {
		t.Fatal("maxcard on a solvable instance reported unsolvable")
	}

	// The registered snapshot is untouched by all of the above.
	if snap2, _ := s.Instance(snap.ID); snap2.Ins.NumApplicants != 200 {
		t.Fatalf("registered snapshot mutated: %d applicants", snap2.Ins.NumApplicants)
	}

	// Delete: cache lines die with the session.
	if !s.DeleteSession(info.ID) {
		t.Fatal("delete failed")
	}
	if s.DeleteSession(info.ID) {
		t.Fatal("double delete succeeded")
	}
	if _, _, err := s.SolveSession(ctx, info.ID, ModePopular); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("solve of deleted session: %v", err)
	}
	for _, key := range []cacheKey{
		{id: info.ID, mode: ModePopular, epoch: meta.Epoch},
		{id: info.ID, mode: ModeMaxCard, epoch: meta.Epoch},
	} {
		if _, ok := s.cache.Get(key); ok {
			t.Fatalf("cache line %+v survived session delete", key)
		}
	}
}

// TestSessionChurnKeepsRegisteredLines is the regression test for session
// re-matches flushing the result cache: each re-match after a mutation used
// to add a line keyed by its new epoch, which no request could hit again, so
// a busy session pushed every registered instance's results out of the LRU.
// A session now holds one line per mode, replaced epoch by epoch.
func TestSessionChurnKeepsRegisteredLines(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: 4})
	ctx := context.Background()
	snap, _, err := s.Upload(strictInstance(t, 53, 60))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(ctx, snap.ID, ModePopular); err != nil {
		t.Fatal(err)
	}
	info, err := s.CreateSession(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := s.MutateSession(info.ID, []Mutation{
			{Op: "set_preferences", Applicant: i, Posts: []int32{int32(i), int32(60 + i)}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, meta, err := s.SolveSession(ctx, info.ID, ModePopular); err != nil || meta.Cached {
			t.Fatalf("cycle %d: re-match meta=%+v err=%v", i, meta, err)
		}
		if got := s.Stats()["cache_entries"]; got != 2 {
			t.Fatalf("cycle %d: cache_entries = %d, want 2 (instance + session)", i, got)
		}
	}
	if _, hit, err := s.Solve(ctx, snap.ID, ModePopular); err != nil || !hit {
		t.Fatalf("registered instance's solve after session churn: hit=%v err=%v", hit, err)
	}
}

func TestSessionMutationErrorsAndPartialBatches(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	snap, _, err := s.Upload(strictInstance(t, 43, 50))
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.CreateSession(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MutateSession("s-nope", nil); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("mutate unknown session: %v", err)
	}
	// A batch that fails mid-way: the first edit sticks, the epoch reflects
	// it, and the error names the failing index.
	after, applied, err := s.MutateSession(info.ID, []Mutation{
		{Op: "set_preferences", Applicant: 0, Posts: []int32{1, 2}},
		{Op: "set_preferences", Applicant: -1, Posts: []int32{0}},
	})
	if err == nil || !strings.Contains(err.Error(), "mutation 1") {
		t.Fatalf("partial batch error: %v", err)
	}
	if len(applied) != 1 || after.Epoch == 0 || after.Mutations != 1 {
		t.Fatalf("partial batch state: applied=%v info=%+v", applied, after)
	}
	if _, _, err := s.MutateSession(info.ID, []Mutation{{Op: "rename"}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// The session still solves after a rejected mutation.
	if _, _, err := s.SolveSession(context.Background(), info.ID, ModePopular); err != nil {
		t.Fatalf("solve after rejected mutation: %v", err)
	}
}

func TestSessionLimit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxSessions: 1})
	snap, _, err := s.Upload(strictInstance(t, 47, 20))
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.CreateSession(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession(snap.ID); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("second session: %v, want ErrTooManySessions", err)
	}
	s.DeleteSession(info.ID)
	if _, err := s.CreateSession(snap.ID); err != nil {
		t.Fatalf("session after delete: %v", err)
	}
}
