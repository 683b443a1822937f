package stable

import (
	"math/rand"
	"testing"

	"repro/internal/par"
)

func TestEliminateAllEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	opt := Options{}
	for trial := 0; trial < 30; trial++ {
		ins := Random(rng, 3+rng.Intn(25))
		m := GaleShapley(ins)
		rots, err := ExposedRotations(ins, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rots) < 2 {
			continue
		}
		simultaneous := EliminateAll(m, rots, opt)
		if err := Verify(ins, simultaneous); err != nil {
			t.Fatalf("trial %d: simultaneous elimination unstable: %v", trial, err)
		}
		// Sequential elimination in forward and reverse order must agree.
		fwd := m
		for _, rho := range rots {
			fwd = Eliminate(fwd, rho, opt)
		}
		rev := m
		for i := len(rots) - 1; i >= 0; i-- {
			rev = Eliminate(rev, rots[i], opt)
		}
		if !simultaneous.Equal(fwd) || !simultaneous.Equal(rev) {
			t.Fatalf("trial %d: simultaneous and sequential eliminations differ", trial)
		}
	}
}

func TestRotationsAreVertexDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	opt := Options{}
	for trial := 0; trial < 40; trial++ {
		ins := Random(rng, 3+rng.Intn(30))
		m := GaleShapley(ins)
		rots, err := ExposedRotations(ins, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		seenM := map[int32]bool{}
		seenW := map[int32]bool{}
		for _, rho := range rots {
			for i := range rho.Men {
				if seenM[rho.Men[i]] || seenW[rho.Women[i]] {
					t.Fatalf("trial %d: rotations share a vertex", trial)
				}
				seenM[rho.Men[i]] = true
				seenW[rho.Women[i]] = true
			}
		}
	}
}

func TestFastLatticeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	opt := Options{}
	for trial := 0; trial < 15; trial++ {
		ins := Random(rng, 3+rng.Intn(40))
		m0 := GaleShapley(ins)
		fast, err := FastLatticeWalk(ins, m0, opt)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := LatticeWalk(ins, m0, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) > len(slow) {
			t.Fatalf("trial %d: fast walk (%d steps) longer than chain (%d)", trial, len(fast), len(slow))
		}
		mz := WomanOptimal(ins)
		if !fast[len(fast)-1].Equal(mz) {
			t.Fatalf("trial %d: fast walk missed the woman-optimal matching", trial)
		}
		for i, c := range fast {
			if err := Verify(ins, c); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, i, err)
			}
			if i > 0 && !Dominates(ins, fast[i-1], c, opt) {
				t.Fatalf("trial %d: fast walk not descending", trial)
			}
		}
	}
}

// Theorem 16's NC claim, pinned: one Algorithm 4 invocation on an n-man
// instance (rank matrices, reduced lists, H_M, cycle detection and the
// eliminations) takes at most c₁·L² rounds and c₂·n²·L units of work, where
// L = par.Iterations(n). The input is n² list entries, so work is bounded
// per entry. Each constant is the largest ratio measured over seeds 1–3,
// n = 100, 250, 500, 1000 and P = 1, 2, plus 10%. They only ratchet down: a
// change that lowers rounds or work lowers its constant in the same change.
const (
	alg4Rounds = 1.1 * 30 / 49 // max 30 rounds at L = 7 (n = 100, seed 2)
	alg4Work   = 1.1 * 0.8930  // max 0.8930·n²·L (n = 100, seed 3)
)

// TestAlgorithm4RoundsPolylog gates stable.NextMatchings at P = 1 and
// P = 2: equal round counts and equal work, each within its constant.
// `go test -run Algorithm4RoundsPolylog -v` prints every ratio. n = 1000 is
// skipped under -short.
func TestAlgorithm4RoundsPolylog(t *testing.T) {
	sizes := []int{100, 250, 500, 1000}
	if testing.Short() {
		sizes = sizes[:3]
	}
	pools := []*par.Pool{par.NewPool(1), par.NewPool(2)}
	defer pools[0].Close()
	defer pools[1].Close()
	for _, n := range sizes {
		lg := float64(par.Iterations(n))
		for seed := int64(1); seed <= 3; seed++ {
			ins := Random(rand.New(rand.NewSource(seed)), n)
			m0 := GaleShapley(ins)
			var rounds, work [2]int64
			for i, pool := range pools {
				var tr par.Tracer
				if _, err := NextMatchings(ins, m0, Options{Pool: pool, Tracer: &tr}); err != nil {
					t.Fatal(err)
				}
				rounds[i], work[i] = tr.Rounds(), tr.Work()
				r := float64(tr.Rounds()) / (lg * lg)
				w := float64(tr.Work()) / (float64(n) * float64(n) * lg)
				t.Logf("n=%d seed=%d P=%d: %d rounds = %.4f·L², work %d = %.4f·n²·L",
					n, seed, i+1, tr.Rounds(), r, tr.Work(), w)
				if r > alg4Rounds {
					t.Errorf("n=%d seed=%d P=%d: %.4f·L² rounds exceeds the gate %.4f", n, seed, i+1, r, alg4Rounds)
				}
				if w > alg4Work {
					t.Errorf("n=%d seed=%d P=%d: %.4f·n²·L work exceeds the gate %.4f", n, seed, i+1, w, alg4Work)
				}
			}
			if rounds[0] != rounds[1] || work[0] != work[1] {
				t.Errorf("n=%d seed=%d: %d rounds and %d work at P=1 but %d and %d at P=2",
					n, seed, rounds[0], work[0], rounds[1], work[1])
			}
		}
	}
}
