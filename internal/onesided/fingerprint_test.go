package onesided

import (
	"math/rand"
	"testing"
)

func TestFingerprintStableAcrossConstruction(t *testing.T) {
	lists := [][]int32{{0, 1}, {1, 0}, {0, 2}}
	a, err := NewStrict(3, lists)
	if err != nil {
		t.Fatal(err)
	}
	// Same content built independently (and via explicit ranks) must agree.
	b, err := NewWithTies(3, [][]int32{{0, 1}, {1, 0}, {0, 2}},
		[][]int32{{1, 2}, {1, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal instances fingerprint differently: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	if got := a.Fingerprint(); len(got) != 32 {
		t.Fatalf("fingerprint %q is not 32 hex chars", got)
	}
	// Pin the value: the fingerprint is a cross-process registry key, so it
	// must not drift between builds or hosts. (The constant changed once, when
	// the hash moved from flat-CSR to the incremental row-digest scheme.)
	const want = "d236123f0fc6f9a8bcba2b5e030e5271"
	if got := a.Fingerprint(); got != want {
		t.Fatalf("fingerprint drifted: got %s want %s", got, want)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Instance {
		ins, err := NewStrict(3, [][]int32{{0, 1}, {1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	fp := base().Fingerprint()

	// A different list order, different ranks (tie), different capacities and
	// different dimensions must all change the fingerprint.
	reordered, _ := NewStrict(3, [][]int32{{1, 0}, {1, 2}})
	if reordered.Fingerprint() == fp {
		t.Fatal("reordered list kept the fingerprint")
	}
	tied, _ := NewWithTies(3, [][]int32{{0, 1}, {1, 2}}, [][]int32{{1, 1}, {1, 2}})
	if tied.Fingerprint() == fp {
		t.Fatal("tie kept the fingerprint")
	}
	capped := base()
	if err := capped.SetCapacities([]int32{2, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if capped.Fingerprint() == fp {
		t.Fatal("capacities kept the fingerprint")
	}
	wider, _ := NewStrict(4, [][]int32{{0, 1}, {1, 2}})
	if wider.Fingerprint() == fp {
		t.Fatal("extra post kept the fingerprint")
	}
}

func TestFingerprintInvalidate(t *testing.T) {
	ins, err := NewStrict(3, [][]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	fp := ins.Fingerprint()
	if err := ins.SetCapacities([]int32{3, 1, 2}); err != nil {
		t.Fatal(err) // SetCapacities invalidates the caches itself
	}
	if got := ins.Fingerprint(); got == fp {
		t.Fatal("fingerprint not recomputed after SetCapacities")
	}
	// An explicit mutate-then-Invalidate also recomputes.
	ins.Capacities = nil
	ins.Invalidate()
	if got := ins.Fingerprint(); got != fp {
		t.Fatalf("fingerprint after restoring content: got %s want %s", got, fp)
	}
}

func TestFingerprintNoCollisionsSmallCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		ins := RandomTies(rng, 2+rng.Intn(6), 2+rng.Intn(6), 1, 4, 0.3)
		if rng.Intn(2) == 0 {
			if err := ins.SetCapacities(RandomCapacities(rng, ins.NumPosts, 3)); err != nil {
				t.Fatal(err)
			}
		}
		seen[ins.Fingerprint()] = true
	}
	// Random draws may repeat; just require that hashing distinguishes a
	// healthy fraction (identical instances are legitimately equal).
	if len(seen) < 150 {
		t.Fatalf("only %d distinct fingerprints over 200 random instances", len(seen))
	}
}

// TestFingerprintAllocations pins the row digests allocation-free: hashing
// a fresh 1,000-row instance costs a handful of allocations per call (the
// digest slice, the hasher, the result string), never one per row.
func TestFingerprintAllocations(t *testing.T) {
	base := Solvable(rand.New(rand.NewSource(5)), 1000, 250, 5)
	const runs = 20
	fresh := make([]*Instance, runs+1) // AllocsPerRun adds one warm-up call
	for i := range fresh {
		fresh[i] = base.Clone()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		fresh[i].Fingerprint()
		i++
	})
	if allocs > 8 {
		t.Fatalf("Fingerprint of a fresh 1,000-row instance made %.0f allocations, want <= 8", allocs)
	}
}
