package onesided

import (
	"math/rand"
	"testing"
)

// requireSame asserts that a mutated instance is indistinguishable from one
// freshly built with the same content: structural validity, CSR content and
// strictness, RankOf, and fingerprint.
func requireSame(t *testing.T, got, want *Instance) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("mutated instance invalid: %v", err)
	}
	gc, wc := got.CSR(), want.CSR()
	if gc.NumApplicants != wc.NumApplicants || gc.NumPosts != wc.NumPosts {
		t.Fatalf("dims: got %dx%d want %dx%d", gc.NumApplicants, gc.NumPosts, wc.NumApplicants, wc.NumPosts)
	}
	if !equal32(gc.Off, wc.Off) || !equal32(gc.Post, wc.Post) || !equal32(gc.Rank, wc.Rank) {
		t.Fatalf("CSR arrays diverge after mutation")
	}
	if (gc.Capacities == nil) != (wc.Capacities == nil) || !equal32(gc.Capacities, wc.Capacities) {
		t.Fatalf("CSR capacities diverge: got %v want %v", gc.Capacities, wc.Capacities)
	}
	if gc.Strict() != wc.Strict() {
		t.Fatalf("CSR strictness diverges: got %v want %v", gc.Strict(), wc.Strict())
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Fatalf("fingerprint diverges: got %s want %s", g, w)
	}
	for a := 0; a < want.NumApplicants; a++ {
		for i, p := range want.Lists[a] {
			r, ok := got.RankOf(a, p)
			if !ok || r != want.Ranks[a][i] {
				t.Fatalf("RankOf(%d,%d) = %d,%v want %d,true", a, p, r, ok, want.Ranks[a][i])
			}
		}
	}
}

func equal32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// warm touches every derived cache so mutations must patch, not rebuild.
func warm(t *testing.T, ins *Instance) {
	t.Helper()
	ins.CSR()
	ins.Fingerprint()
	if _, ok := ins.RankOf(0, ins.Lists[0][0]); !ok {
		t.Fatal("warm RankOf failed")
	}
}

func TestSetPreferencesPatchesCaches(t *testing.T) {
	ins, err := NewStrict(4, [][]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	warm(t, ins)
	csrBefore := ins.csrCache.Load()

	// Same-length edit: must patch the CSR in place (same *CSR pointer).
	if err := ins.SetPreferences(1, []int32{3, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if ins.csrCache.Load() != csrBefore {
		t.Fatal("same-length edit rebuilt the CSR instead of patching it")
	}
	fresh, err := NewStrict(4, [][]int32{{0, 1}, {3, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, ins, fresh)

	// Length-changing edit: resplice, still equivalent.
	if err := ins.SetPreferences(0, []int32{2, 1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err = NewStrict(4, [][]int32{{2, 1, 0}, {3, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, ins, fresh)

	// Tie-introducing edit must flip CSR strictness.
	if err := ins.SetPreferences(2, []int32{2, 3}, []int32{1, 1}); err != nil {
		t.Fatal(err)
	}
	if ins.CSR().Strict() {
		t.Fatal("CSR still strict after a tie was introduced")
	}
	// And removing the tie must restore it.
	if err := ins.SetPreferences(2, []int32{2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if !ins.CSR().Strict() {
		t.Fatal("CSR not strict after the only tie was removed")
	}
}

func TestSetPreferencesRejectsBadRows(t *testing.T) {
	ins, err := NewStrict(3, [][]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	warm(t, ins)
	fp := ins.Fingerprint()
	cases := []struct {
		posts, ranks []int32
	}{
		{nil, nil},                           // empty
		{[]int32{0, 3}, nil},                 // out of range
		{[]int32{0, 0}, nil},                 // duplicate
		{[]int32{0, 1}, []int32{2, 3}},       // first rank != 1
		{[]int32{0, 1, 2}, []int32{1, 1, 3}}, // rank jump
		{[]int32{0, 1}, []int32{1}},          // length mismatch
	}
	for i, c := range cases {
		if err := ins.SetPreferences(0, c.posts, c.ranks); err == nil {
			t.Fatalf("case %d: bad row accepted", i)
		}
	}
	if err := ins.SetPreferences(2, []int32{0}, nil); err == nil {
		t.Fatal("out-of-range applicant accepted")
	}
	if ins.Epoch() != 0 {
		t.Fatalf("rejected mutations bumped the epoch to %d", ins.Epoch())
	}
	if ins.Fingerprint() != fp {
		t.Fatal("rejected mutation changed the fingerprint")
	}
}

func TestSetPreferencesCopiesInputs(t *testing.T) {
	ins, err := NewStrict(3, [][]int32{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	warm(t, ins)
	posts := []int32{1, 2}
	if err := ins.SetPreferences(0, posts, nil); err != nil {
		t.Fatal(err)
	}
	posts[0] = 0 // caller reuses its buffer (e.g. an HTTP decode buffer)
	if ins.Lists[0][0] != 1 {
		t.Fatal("SetPreferences aliased the caller's slice")
	}
}

func TestAddRemoveApplicant(t *testing.T) {
	ins, err := NewStrict(4, [][]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	warm(t, ins)

	id, err := ins.AddApplicant([]int32{3, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("AddApplicant id = %d, want 3", id)
	}
	fresh, err := NewStrict(4, [][]int32{{0, 1}, {1, 2}, {2, 3}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, ins, fresh)

	moved, err := ins.RemoveApplicant(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 3 {
		t.Fatalf("RemoveApplicant moved = %d, want 3", moved)
	}
	fresh, err = NewStrict(4, [][]int32{{0, 1}, {3, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, ins, fresh)

	// Removing the last applicant moves nobody.
	moved, err = ins.RemoveApplicant(2)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("RemoveApplicant(last) moved = %d, want 2", moved)
	}
	fresh, err = NewStrict(4, [][]int32{{0, 1}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, ins, fresh)
}

func TestSetCapacityMatchesFresh(t *testing.T) {
	ins, err := NewStrict(3, [][]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	warm(t, ins)
	if err := ins.SetCapacity(1, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewStrict(3, [][]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetCapacities([]int32{1, 2, 1}); err != nil {
		t.Fatal(err)
	}
	requireSame(t, ins, fresh)

	if err := ins.SetCapacity(-1, 2); err == nil {
		t.Fatal("negative post accepted")
	}
	if err := ins.SetCapacity(0, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestDirtySinceSemantics(t *testing.T) {
	ins, err := NewStrict(4, [][]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", ins.Epoch())
	}
	rows, shape, ok := ins.DirtySince(0)
	if !ok || shape || rows != nil {
		t.Fatalf("DirtySince(current) = %v,%v,%v", rows, shape, ok)
	}
	if _, _, ok := ins.DirtySince(5); ok {
		t.Fatal("future epoch reported ok")
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ins.SetPreferences(1, []int32{2, 1}, nil))
	must(ins.SetPreferences(2, []int32{3}, nil))
	rows, shape, ok = ins.DirtySince(0)
	if !ok || shape || !equal32(rows, []int32{1, 2}) {
		t.Fatalf("DirtySince(0) = %v,%v,%v want [1 2],false,true", rows, shape, ok)
	}
	rows, shape, ok = ins.DirtySince(1)
	if !ok || shape || !equal32(rows, []int32{2}) {
		t.Fatalf("DirtySince(1) = %v,%v,%v want [2],false,true", rows, shape, ok)
	}

	// A shape change anywhere in the window flips shape=true.
	if _, err := ins.AddApplicant([]int32{0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, shape, ok = ins.DirtySince(0); !ok || !shape {
		t.Fatalf("window with AddApplicant: shape=%v ok=%v", shape, ok)
	}
	// But a window strictly after it is row-local again.
	e := ins.Epoch()
	must(ins.SetPreferences(0, []int32{1, 0}, nil))
	rows, shape, ok = ins.DirtySince(e)
	if !ok || shape || !equal32(rows, []int32{0}) {
		t.Fatalf("post-shape window = %v,%v,%v", rows, shape, ok)
	}

	// Invalidate makes every older window unreplayable.
	ins.Invalidate()
	if _, _, ok := ins.DirtySince(e); ok {
		t.Fatal("window across Invalidate reported ok")
	}
	if _, _, ok := ins.DirtySince(ins.Epoch()); !ok {
		t.Fatal("current epoch after Invalidate not ok")
	}
}

func TestDirtySinceJournalOverflow(t *testing.T) {
	ins, err := NewStrict(2, [][]int32{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxMutLog+10; i++ {
		if err := ins.SetPreferences(i%2, []int32{int32(i % 2), int32((i + 1) % 2)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := ins.DirtySince(0); ok {
		t.Fatal("window older than the journal reported ok")
	}
	e := ins.Epoch()
	if err := ins.SetPreferences(0, []int32{0}, nil); err != nil {
		t.Fatal(err)
	}
	rows, shape, ok := ins.DirtySince(e)
	if !ok || shape || !equal32(rows, []int32{0}) {
		t.Fatalf("recent window after overflow = %v,%v,%v", rows, shape, ok)
	}
	if got := len(ins.log.recs); got > maxMutLog {
		t.Fatalf("journal grew to %d records, cap %d", got, maxMutLog)
	}
}

// TestMutationFuzzEquivalence drives random mutation scripts against warm
// instances and checks after every step that the mutated instance is
// indistinguishable from a freshly built one.
func TestMutationFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		numPosts := 3 + rng.Intn(5)
		n := 2 + rng.Intn(5)
		lists := make([][]int32, n)
		for a := range lists {
			lists[a] = randRow(rng, numPosts)
		}
		ins, err := NewStrict(numPosts, deepCopyRows(lists))
		if err != nil {
			t.Fatal(err)
		}
		warm(t, ins)
		for step := 0; step < 12; step++ {
			switch op := rng.Intn(4); {
			case op == 0 && len(lists) < 10:
				row := randRow(rng, numPosts)
				if _, err := ins.AddApplicant(row, nil); err != nil {
					t.Fatalf("trial %d step %d: AddApplicant: %v", trial, step, err)
				}
				lists = append(lists, row)
			case op == 1 && len(lists) > 1:
				a := rng.Intn(len(lists))
				if _, err := ins.RemoveApplicant(a); err != nil {
					t.Fatalf("trial %d step %d: RemoveApplicant: %v", trial, step, err)
				}
				lists[a] = lists[len(lists)-1]
				lists = lists[:len(lists)-1]
			default:
				a := rng.Intn(len(lists))
				row := randRow(rng, numPosts)
				if err := ins.SetPreferences(a, row, nil); err != nil {
					t.Fatalf("trial %d step %d: SetPreferences: %v", trial, step, err)
				}
				lists[a] = row
			}
			fresh, err := NewStrict(numPosts, deepCopyRows(lists))
			if err != nil {
				t.Fatal(err)
			}
			if ins.Capacities != nil {
				if err := fresh.SetCapacities(append([]int32(nil), ins.Capacities...)); err != nil {
					t.Fatal(err)
				}
			}
			requireSame(t, ins, fresh)
		}
	}
}

func randRow(rng *rand.Rand, numPosts int) []int32 {
	k := 1 + rng.Intn(numPosts)
	perm := rng.Perm(numPosts)
	row := make([]int32, k)
	for i := 0; i < k; i++ {
		row[i] = int32(perm[i])
	}
	return row
}

func deepCopyRows(rows [][]int32) [][]int32 {
	out := make([][]int32, len(rows))
	for i := range rows {
		out[i] = append([]int32(nil), rows[i]...)
	}
	return out
}

// TestExpandedStoreBeforeRecord regresses the ordering race in Expanded: a
// mutate+Invalidate interleaved between the expansion store and the
// fingerprint re-record must not leave a stale expansion cached. With the
// old record-then-store order the post-Invalidate store planted an expansion
// of the pre-mutation lists that later calls served as current.
func TestExpandedStoreBeforeRecord(t *testing.T) {
	ins, err := NewStrict(2, [][]int32{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.SetCapacities([]int32{2, 1}); err != nil {
		t.Fatal(err)
	}
	fired := false
	expandedRaceHook = func() {
		if fired {
			return
		}
		fired = true
		// The interleaved writer mutates and invalidates, exactly inside the
		// former race window.
		ins.Lists[0] = []int32{0}
		ins.Ranks[0] = []int32{1}
		ins.Invalidate()
	}
	defer func() { expandedRaceHook = nil }()

	if _, err := ins.Expanded(); err != nil {
		t.Fatal(err)
	}
	// The expansion built from the pre-mutation lists must NOT have survived
	// the Invalidate.
	if e := ins.expCache.Load(); e != nil {
		t.Fatal("stale expansion survived an interleaved Invalidate")
	}
	// And a fresh call must reflect the mutated instance: applicant 0 now
	// lists one post, so the unit instance has 2 rows over 3 clone posts.
	e, err := ins.Expanded()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Unit.Lists[0]) != 2 { // post 0 has capacity 2 -> two clones
		t.Fatalf("expansion row 0 = %v, want the two clones of post 0", e.Unit.Lists[0])
	}
}

func TestMutationKeepsDebugCheckerHappy(t *testing.T) {
	// Under -tags debug the caches are re-checked against recorded row
	// fingerprints on every hit; afterMutation must re-record so patched
	// caches don't panic. (Under the release tags this still exercises the
	// patch paths.)
	ins, err := NewStrict(3, [][]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	warm(t, ins)
	if err := ins.SetPreferences(0, []int32{2, 0}, nil); err != nil {
		t.Fatal(err)
	}
	ins.CSR()
	if _, ok := ins.RankOf(0, 2); !ok {
		t.Fatal("RankOf after mutation")
	}
	if _, err := ins.AddApplicant([]int32{0}, nil); err != nil {
		t.Fatal(err)
	}
	ins.CSR()
	if _, ok := ins.RankOf(2, 0); !ok {
		t.Fatal("RankOf after AddApplicant")
	}
}
