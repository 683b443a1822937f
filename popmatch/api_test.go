package popmatch

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestPublicIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ins := RandomTies(rng, 12, 9, 1, 5, 0.3)
	var sb strings.Builder
	if err := Write(&sb, ins); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumApplicants != ins.NumApplicants || back.NumPosts != ins.NumPosts {
		t.Fatal("round trip changed dimensions")
	}
}

func TestPublicMaxBipartiteMatching(t *testing.T) {
	// Perfect matching on a 3-cycle-ish graph.
	adj := [][]int32{{0, 1}, {1, 2}, {0}}
	matchL, size, err := MaxBipartiteMatching(adj, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
	used := map[int32]bool{}
	for l, r := range matchL {
		if r < 0 {
			t.Fatalf("left %d unmatched", l)
		}
		if used[r] {
			t.Fatal("column reused")
		}
		used[r] = true
	}
	// Graph with isolated left vertices.
	adj2 := [][]int32{{}, {0}, {}}
	matchL2, size2, err := MaxBipartiteMatching(adj2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if size2 != 1 || matchL2[0] != -1 || matchL2[1] != 0 || matchL2[2] != -1 {
		t.Fatalf("matchL = %v size = %d", matchL2, size2)
	}
}

func TestPublicMinWeightDistinctFromMax(t *testing.T) {
	// Two applicants, two posts, cyclic reduced graph: min and max weight
	// popular matchings differ under an asymmetric weight.
	ins, err := NewStrict(2, [][]int32{{0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := func(a, p int32) int64 {
		if a == 0 && p == 0 {
			return 10
		}
		return 1
	}
	mx, err := MaxWeight(ins, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mn, err := MinWeight(ins, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mx.Exists || !mn.Exists {
		t.Fatal("both directions must be solvable")
	}
	if mx.Matching.PostOf[0] != 0 {
		t.Fatal("max-weight should give applicant 0 post 0")
	}
	if mn.Matching.PostOf[0] != 1 {
		t.Fatal("min-weight should give applicant 0 post 1")
	}
}

func TestPublicVerifyRejects(t *testing.T) {
	ins := PaperInstance()
	res, err := Solve(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := res.Matching.Clone()
	// Move a1 to its 4th choice: breaks Theorem 1(ii).
	bad.Match(0, 1)
	bad.Match(1, 0)
	if err := Verify(ins, bad, Options{}); err == nil {
		t.Fatal("Verify accepted a corrupted matching")
	}
}

func TestPublicProfile(t *testing.T) {
	ins := PaperInstance()
	res, _ := Solve(ins, Options{})
	prof := Profile(ins, res.Matching)
	total := 0
	for _, x := range prof {
		total += x
	}
	if total != ins.NumApplicants {
		t.Fatalf("profile sums to %d, want %d", total, ins.NumApplicants)
	}
}

func TestPublicCountLargeInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ins := Solvable(rng, 50, 20, 4)
	count, err := Count(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if count.Sign() <= 0 {
		t.Fatal("solvable instance must have at least one popular matching")
	}
}

// switchRing builds the "ring" over 2k posts (f_i = i, s_i = k+i):
// applicants [f_i, s_i] and [f_{(i+1) mod k}, s_i]. Its switching graph is
// one 2k-cycle, so it has exactly two popular matchings. With chain set the
// last [f_0, s_{k-1}] applicant is left out and the switching graph is one
// path of 2k-1 edges: k popular matchings (none, or one of the k-1
// switching paths that start at an s-post).
func switchRing(t *testing.T, k int, chain bool) *Instance {
	t.Helper()
	lists := make([][]int32, 0, 2*k)
	for i := 0; i < k; i++ {
		lists = append(lists, []int32{int32(i), int32(k + i)})
	}
	for i := 0; i < k; i++ {
		if chain && i == k-1 {
			break
		}
		lists = append(lists, []int32{int32((i + 1) % k), int32(k + i)})
	}
	ins, err := NewStrict(2*k, lists)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestCountRingAndChain(t *testing.T) {
	for _, c := range []struct {
		k     int
		chain bool
		want  int64
	}{{1, false, 2}, {7, false, 2}, {7, true, 7}, {300, true, 300}} {
		count, err := Count(switchRing(t, c.k, c.chain), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if count.Int64() != c.want {
			t.Fatalf("k=%d chain=%v: Count = %s, want %d", c.k, c.chain, count, c.want)
		}
	}
}

// TestCountLongSwitchingCycle pins Count linear in the length of a
// switching cycle: each cycle is counted once by its component label, not
// by walking the cycle from each of its vertices (quadratic: ~25 s here).
func TestCountLongSwitchingCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 100,000-applicant instance")
	}
	ins := switchRing(t, 50_000, false)
	start := time.Now()
	count, err := Count(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if count.Int64() != 2 {
		t.Fatalf("Count = %s, want 2", count)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Count on a 100,000-vertex switching cycle took %v, want under 2s", d)
	}
}
