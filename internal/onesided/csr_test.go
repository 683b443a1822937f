package onesided

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestValidateErrorPaths pins every structural check of Instance.Validate:
// the stamp-array rewrite must reject exactly what the map-based original
// rejected. The row-rule and capacity cases run through the binary decoder
// too (an encoding of the broken instance), and the row-rule cases through
// SetPreferences (the broken row submitted to a valid instance), so every
// surface that accepts rows applies the same rule with the same text.
func TestValidateErrorPaths(t *testing.T) {
	valid := func() *Instance {
		return &Instance{
			NumApplicants: 2,
			NumPosts:      3,
			Lists:         [][]int32{{0, 1}, {2}},
			Ranks:         [][]int32{{1, 2}, {1}},
		}
	}
	// Besides Validate, the entry points that must reject a case.
	const (
		decoder = 1 << iota
		setPreferences
	)
	cases := []struct {
		name    string
		mutate  func(*Instance)
		wantSub string
		also    int
	}{
		{"list count mismatch", func(ins *Instance) { ins.Lists = ins.Lists[:1] }, "lists", 0},
		{"rank row count mismatch", func(ins *Instance) { ins.Ranks = ins.Ranks[:1] }, "rank rows", 0},
		{"row length mismatch", func(ins *Instance) { ins.Ranks[0] = []int32{1} }, "2 posts but 1 ranks", setPreferences},
		{"empty list", func(ins *Instance) { ins.Lists[1] = nil; ins.Ranks[1] = nil }, "empty preference list", decoder | setPreferences},
		{"negative post", func(ins *Instance) { ins.Lists[0][1] = -1 }, "out-of-range", decoder | setPreferences},
		{"post too large", func(ins *Instance) { ins.Lists[1][0] = 3 }, "out-of-range", decoder | setPreferences},
		{"duplicate post", func(ins *Instance) { ins.Lists[0][1] = 0; ins.Ranks[0][1] = 2 }, "twice", decoder | setPreferences},
		{"first rank not 1", func(ins *Instance) { ins.Ranks[0][0] = 2 }, "first rank", decoder | setPreferences},
		{"decreasing rank", func(ins *Instance) { ins.Ranks[0] = []int32{1, 0} }, "not contiguous", decoder | setPreferences},
		{"rank gap", func(ins *Instance) { ins.Ranks[0] = []int32{1, 3} }, "not contiguous", decoder | setPreferences},
		{"capacity count mismatch", func(ins *Instance) { ins.Capacities = []int32{1} }, "3 posts but 1 capacities", 0},
		{"zero capacity", func(ins *Instance) { ins.Capacities = []int32{1, 0, 1} }, "capacity 0", decoder},
		{"negative capacity", func(ins *Instance) { ins.Capacities = []int32{1, 1, -2} }, "capacity -2", decoder},
		{"negative post count", func(ins *Instance) { ins.NumPosts = -1 }, "negative post count", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins := valid()
			if err := ins.Validate(); err != nil {
				t.Fatalf("base instance invalid: %v", err)
			}
			tc.mutate(ins)
			err := ins.Validate()
			if err == nil {
				t.Fatalf("mutation accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if tc.also&decoder != 0 {
				_, derr := DecodeBinary(EncodeBinary(nil, BuildCSR(ins)))
				if derr == nil || derr.Error() != err.Error() {
					t.Fatalf("decoder error %v, Validate error %q", derr, err)
				}
			}
			if tc.also&setPreferences != 0 {
				base := valid()
				for a := range ins.Lists {
					if slices.Equal(ins.Lists[a], base.Lists[a]) && slices.Equal(ins.Ranks[a], base.Ranks[a]) {
						continue
					}
					serr := base.SetPreferences(a, ins.Lists[a], ins.Ranks[a])
					if serr == nil || serr.Error() != err.Error() {
						t.Fatalf("SetPreferences(%d) error %v, Validate error %q", a, serr, err)
					}
				}
			}
		})
	}
}

// TestValidateStampIndependence guards a stamp-array pitfall: the same post
// listed by different applicants must not be flagged as a duplicate.
func TestValidateStampIndependence(t *testing.T) {
	ins := &Instance{
		NumApplicants: 3,
		NumPosts:      2,
		Lists:         [][]int32{{0, 1}, {0, 1}, {1, 0}},
		Ranks:         [][]int32{{1, 2}, {1, 2}, {1, 2}},
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("shared posts across applicants rejected: %v", err)
	}
}

func sameInstance(t *testing.T, a, b *Instance) {
	t.Helper()
	if a.NumApplicants != b.NumApplicants || a.NumPosts != b.NumPosts {
		t.Fatalf("dimensions changed: %d/%d vs %d/%d", a.NumApplicants, a.NumPosts, b.NumApplicants, b.NumPosts)
	}
	if (a.Capacities == nil) != (b.Capacities == nil) {
		t.Fatalf("capacitation changed")
	}
	for p := range a.Capacities {
		if a.Capacities[p] != b.Capacities[p] {
			t.Fatalf("capacity of post %d changed", p)
		}
	}
	for x := range a.Lists {
		if len(a.Lists[x]) != len(b.Lists[x]) {
			t.Fatalf("list %d length changed", x)
		}
		for i := range a.Lists[x] {
			if a.Lists[x][i] != b.Lists[x][i] || a.Ranks[x][i] != b.Ranks[x][i] {
				t.Fatalf("entry %d/%d changed", x, i)
			}
		}
	}
}

func roundTripCSR(t *testing.T, ins *Instance) {
	t.Helper()
	c := BuildCSR(ins)
	if _, err := validateDecoded(c, nil); err != nil {
		t.Fatalf("CSR of a valid instance invalid: %v", err)
	}
	if c.Strict() != ins.Strict() {
		t.Fatalf("CSR strictness %v, instance %v", c.Strict(), ins.Strict())
	}
	if c.NumEdges() == 0 && ins.NumApplicants > 0 {
		t.Fatalf("CSR lost all edges")
	}
	back := c.Instance()
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped instance invalid: %v", err)
	}
	sameInstance(t, ins, back)
	// The cached form must agree with a fresh build.
	cached := ins.CSR()
	if cached.NumEdges() != c.NumEdges() || cached.Strict() != c.Strict() {
		t.Fatalf("cached CSR disagrees with fresh build")
	}
	if ins.CSR() != cached {
		t.Fatalf("CSR cache rebuilt on second access")
	}
}

// TestCSRRoundTripCorpus replays the committed fuzz corpus seeds through the
// CSR conversion: every instance the text parser accepts must survive
// Instance → CSR → Instance losslessly.
func TestCSRRoundTripCorpus(t *testing.T) {
	dirs := []string{
		filepath.Join("testdata", "fuzz", "FuzzReadWrite"),
		filepath.Join("testdata", "fuzz", "FuzzRead"),
	}
	replayed := 0
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue // corpus directory optional
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			src, ok := corpusString(string(raw))
			if !ok {
				t.Fatalf("corpus seed %s not in `go test fuzz v1` string format", e.Name())
			}
			ins, err := Read(strings.NewReader(src))
			if err != nil {
				continue // invalid inputs are the parser's concern
			}
			replayed++
			t.Run(e.Name(), func(t *testing.T) { roundTripCSR(t, ins) })
		}
	}
	if replayed == 0 {
		t.Fatal("no corpus seed parsed; round trip untested")
	}
}

// corpusString extracts the single string literal of a `go test fuzz v1`
// corpus file.
func corpusString(raw string) (string, bool) {
	lines := strings.SplitN(strings.TrimSpace(raw), "\n", 2)
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "go test fuzz v1") {
		return "", false
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimPrefix(body, "string(")
	body = strings.TrimSuffix(body, ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return "", false
	}
	return s, true
}

// TestCSRRoundTripGenerated covers the generator families (strict, ties,
// capacitated) at sizes the corpus seeds do not reach.
func TestCSRRoundTripGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		roundTripCSR(t, RandomStrict(rng, 30, 20, 1, 6))
		roundTripCSR(t, RandomTies(rng, 25, 15, 1, 5, 0.4))
		roundTripCSR(t, RandomCapacitated(rng, 30, 12, 1, 5, 4))
	}
	roundTripCSR(t, PaperFigure1())
	roundTripCSR(t, BinaryBroom(5))
}

// TestCSRViews spot-checks the row accessors against the source instance.
func TestCSRViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := RandomTies(rng, 40, 25, 1, 6, 0.3)
	c := ins.CSR()
	for a := 0; a < ins.NumApplicants; a++ {
		for i, p := range c.List(a) {
			if p != ins.Lists[a][i] || c.Ranks(a)[i] != ins.Ranks[a][i] {
				t.Fatalf("applicant %d entry %d mismatch", a, i)
			}
		}
	}
	if c.TotalPosts() != ins.TotalPosts() {
		t.Fatalf("TotalPosts mismatch")
	}
}

// TestInvalidateRefreshesCaches exercises the documented mutation escape
// hatch: after Invalidate, RankOf and CSR must serve the mutated lists.
func TestInvalidateRefreshesCaches(t *testing.T) {
	ins, err := NewStrict(3, [][]int32{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := ins.RankOf(0, 1); !ok || r != 2 {
		t.Fatalf("RankOf(0,1) = %d,%v", r, ok)
	}
	c := ins.CSR()
	if c.Post[1] != 1 {
		t.Fatalf("CSR entry = %d, want 1", c.Post[1])
	}
	// Mutate in place, then invalidate per the immutability contract.
	ins.Lists[0][1] = 2
	ins.Invalidate()
	if r, ok := ins.RankOf(0, 2); !ok || r != 2 {
		t.Fatalf("after Invalidate RankOf(0,2) = %d,%v, want 2,true", r, ok)
	}
	if _, ok := ins.RankOf(0, 1); ok {
		t.Fatalf("after Invalidate RankOf(0,1) still on list")
	}
	if c2 := ins.CSR(); c2.Post[1] != 2 {
		t.Fatalf("after Invalidate CSR entry = %d, want 2", c2.Post[1])
	}
	// SetCapacities invalidates implicitly: the CSR must carry the vector.
	if err := ins.SetCapacities([]int32{2, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if got := ins.CSR().Capacities[0]; got != 2 {
		t.Fatalf("CSR capacity after SetCapacities = %d, want 2", got)
	}
}
