package stable

import (
	"math/rand"
	"testing"

	"repro/internal/par"
)

func stableOpts() []Options {
	return []Options{
		{Pool: par.Sequential()},
		{Pool: par.NewPool(0)},
	}
}

func TestNewRejectsBadInstances(t *testing.T) {
	if _, err := New([][]int32{{0}}, nil); err == nil {
		t.Fatal("mismatched sides accepted")
	}
	if _, err := New([][]int32{{0, 0}}, [][]int32{{0, 1}}); err == nil {
		t.Fatal("duplicate entry accepted")
	}
	if _, err := New([][]int32{{0, 1}, {1, 0}}, [][]int32{{0, 1}, {2, 0}}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestGaleShapleyStableRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 40; trial++ {
		ins := Random(rng, 1+rng.Intn(40))
		m := GaleShapley(ins)
		if err := Verify(ins, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestWomanOptimalStableAndDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	opt := Options{}
	for trial := 0; trial < 30; trial++ {
		ins := Random(rng, 2+rng.Intn(30))
		m0 := GaleShapley(ins)
		mz := WomanOptimal(ins)
		if err := Verify(ins, mz); err != nil {
			t.Fatalf("trial %d: woman-optimal unstable: %v", trial, err)
		}
		if !Dominates(ins, m0, mz, opt) {
			t.Fatalf("trial %d: man-optimal does not dominate woman-optimal", trial)
		}
	}
}

func TestGaleShapleyIsManOptimal(t *testing.T) {
	// Against brute force: every man's GS partner is his best stable
	// partner.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		ins := Random(rng, 2+rng.Intn(5))
		m0 := GaleShapley(ins)
		mr, _ := ins.RankMatrices(Options{Pool: par.Sequential()})
		for _, s := range AllStableBrute(ins) {
			for mi := 0; mi < ins.N; mi++ {
				if mr[mi][s.PM[mi]] < mr[mi][m0.PM[mi]] {
					t.Fatalf("trial %d: man %d does better in another stable matching", trial, mi)
				}
			}
		}
	}
}

func TestVerifyCatchesBlockingPair(t *testing.T) {
	// Two men both prefer w0; matching them "crosswise" with m0->w1 blocks.
	mp := [][]int32{{0, 1}, {0, 1}}
	wp := [][]int32{{0, 1}, {0, 1}}
	ins, err := New(mp, wp)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewMatching([]int32{1, 0})
	if err := Verify(ins, bad); err == nil {
		t.Fatal("blocking pair (m0,w0) not detected")
	}
	good := NewMatching([]int32{0, 1})
	if err := Verify(ins, good); err != nil {
		t.Fatal(err)
	}
}

func TestMeetJoinStable(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	opt := Options{}
	for trial := 0; trial < 20; trial++ {
		ins := Random(rng, 2+rng.Intn(6))
		all := AllStableBrute(ins)
		for i := 0; i < len(all) && i < 6; i++ {
			for j := i + 1; j < len(all) && j < 6; j++ {
				meet := Meet(ins, all[i], all[j], opt)
				join := Join(ins, all[i], all[j], opt)
				if err := Verify(ins, meet); err != nil {
					t.Fatalf("meet unstable: %v", err)
				}
				if err := Verify(ins, join); err != nil {
					t.Fatalf("join unstable: %v", err)
				}
				if !Dominates(ins, meet, all[i], opt) || !Dominates(ins, meet, all[j], opt) {
					t.Fatal("meet does not dominate its arguments")
				}
				if !Dominates(ins, all[i], join, opt) || !Dominates(ins, all[j], join, opt) {
					t.Fatal("join not dominated by its arguments")
				}
			}
		}
	}
}

// --- E9: Figures 5, 6, 7 ---

func TestPaperFigure5MatchingIsStable(t *testing.T) {
	ins := PaperFigure5()
	if err := Verify(ins, PaperFigure5Matching()); err != nil {
		t.Fatal(err)
	}
}

func TestPaperFigure6ReducedLists(t *testing.T) {
	ins := PaperFigure5()
	m := PaperFigure5Matching()
	for _, opt := range stableOpts() {
		got, err := ReducedLists(ins, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := PaperFigure6Reduced()
		for mi := range want {
			if len(got[mi]) != len(want[mi]) {
				t.Fatalf("m%d: reduced list %v, want %v", mi+1, got[mi], want[mi])
			}
			for i := range want[mi] {
				if got[mi][i] != want[mi][i] {
					t.Fatalf("m%d: reduced list %v, want %v", mi+1, got[mi], want[mi])
				}
			}
		}
	}
}

func TestPaperFigure7SwitchingGraph(t *testing.T) {
	ins := PaperFigure5()
	m := PaperFigure5Matching()
	opt := Options{}
	g, _, err := SwitchingGraph(ins, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	// H_M edges derived from Figure 6's second entries:
	// m1->m2, m2->m4, m3->m6, m4->m1, m5->m7, m6->m3, m7->m3, m8->m7.
	want := []int32{1, 3, 5, 0, 6, 2, 2, 6}
	for mi, s := range g.Succ {
		if s != want[mi] {
			t.Fatalf("H_M edge from m%d: got m%d, want m%d", mi+1, s+1, want[mi]+1)
		}
	}
}

func TestPaperFigure7Rotations(t *testing.T) {
	ins := PaperFigure5()
	m := PaperFigure5Matching()
	opt := Options{}
	rots, err := ExposedRotations(ins, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rots) != 2 {
		t.Fatalf("found %d exposed rotations, want 2", len(rots))
	}
	// Rotation 1: (m1,w8) (m2,w3) (m4,w6). Rotation 2: (m3,w5) (m6,w1).
	r0 := rots[0]
	if len(r0.Men) != 3 || r0.Men[0] != 0 || r0.Men[1] != 1 || r0.Men[2] != 3 {
		t.Fatalf("rotation 1 men = %v, want [m1 m2 m4]", r0.Men)
	}
	if r0.Women[0] != 7 || r0.Women[1] != 2 || r0.Women[2] != 5 {
		t.Fatalf("rotation 1 women = %v, want [w8 w3 w6]", r0.Women)
	}
	r1 := rots[1]
	if len(r1.Men) != 2 || r1.Men[0] != 2 || r1.Men[1] != 5 {
		t.Fatalf("rotation 2 men = %v, want [m3 m6]", r1.Men)
	}
	if r1.Women[0] != 4 || r1.Women[1] != 0 {
		t.Fatalf("rotation 2 women = %v, want [w5 w1]", r1.Women)
	}
	// Both eliminations are stable and strictly dominated by M.
	for _, rho := range rots {
		next := Eliminate(m, rho, opt)
		if err := Verify(ins, next); err != nil {
			t.Fatalf("elimination unstable: %v", err)
		}
		if !Dominates(ins, m, next, opt) || next.Equal(m) {
			t.Fatal("elimination not strictly below M")
		}
	}
}

// --- Definition 7 invariants and Lemma 15 ---

func TestRotationsSatisfyDefinition7(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	opt := Options{}
	for trial := 0; trial < 40; trial++ {
		ins := Random(rng, 2+rng.Intn(20))
		m := GaleShapley(ins)
		mr, wr := ins.RankMatrices(opt)
		rots, err := ExposedRotations(ins, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, rho := range rots {
			k := len(rho.Men)
			if k < 2 {
				t.Fatal("rotation of length < 2")
			}
			for i := 0; i < k; i++ {
				mi := rho.Men[i]
				wi := rho.Women[i]
				wn := rho.Women[(i+1)%k]
				if m.PM[mi] != wi {
					t.Fatal("rotation pair not matched in M")
				}
				// (i) m_i prefers w_i to w_{i+1}.
				if mr[mi][wi] >= mr[mi][wn] {
					t.Fatal("Definition 7(i) violated")
				}
				// (ii) w_{i+1} prefers m_i to m_{i+1}.
				mn := rho.Men[(i+1)%k]
				if wr[wn][mi] >= wr[wn][mn] {
					t.Fatal("Definition 7(ii) violated")
				}
			}
		}
	}
}

func TestLemma15ImmediateDomination(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	opt := Options{}
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		ins := Random(rng, n)
		all := AllStableBrute(ins)
		for _, m := range all {
			nexts, err := NextMatchings(ins, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, nx := range nexts {
				if err := Verify(ins, nx); err != nil {
					t.Fatal(err)
				}
				// No stable matching strictly between m and nx.
				for _, mid := range all {
					if mid.Equal(m) || mid.Equal(nx) {
						continue
					}
					if Dominates(ins, m, mid, opt) && Dominates(ins, mid, nx, opt) {
						t.Fatalf("trial %d: Lemma 15 violated: a stable matching lies strictly between", trial)
					}
				}
			}
		}
	}
}

func TestNextMatchingsCoverAllImmediateSuccessors(t *testing.T) {
	// Completeness of Algorithm 4: every stable matching immediately below
	// M must be some M\ρ.
	rng := rand.New(rand.NewSource(127))
	opt := Options{}
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(4)
		ins := Random(rng, n)
		all := AllStableBrute(ins)
		for _, m := range all {
			nexts, err := NextMatchings(ins, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			isNext := func(c *Matching) bool {
				for _, nx := range nexts {
					if nx.Equal(c) {
						return true
					}
				}
				return false
			}
			for _, c := range all {
				if c.Equal(m) || !Dominates(ins, m, c, opt) {
					continue
				}
				// Is c immediately below m?
				immediate := true
				for _, mid := range all {
					if mid.Equal(m) || mid.Equal(c) {
						continue
					}
					if Dominates(ins, m, mid, opt) && Dominates(ins, mid, c, opt) {
						immediate = false
						break
					}
				}
				if immediate && !isNext(c) {
					t.Fatalf("trial %d: immediate successor missed by Algorithm 4", trial)
				}
			}
		}
	}
}

func TestWomanOptimalDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	opt := Options{}
	for trial := 0; trial < 25; trial++ {
		ins := Random(rng, 2+rng.Intn(15))
		mz := WomanOptimal(ins)
		womanOpt, err := IsWomanOptimal(ins, mz, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !womanOpt {
			t.Fatalf("trial %d: woman-optimal not detected", trial)
		}
		rots, err := ExposedRotations(ins, mz, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rots) != 0 {
			t.Fatalf("trial %d: woman-optimal exposes %d rotations", trial, len(rots))
		}
		m0 := GaleShapley(ins)
		if !m0.Equal(mz) {
			womanOpt, err = IsWomanOptimal(ins, m0, opt)
			if err != nil {
				t.Fatal(err)
			}
			if womanOpt {
				t.Fatalf("trial %d: man-optimal misdetected as woman-optimal", trial)
			}
		}
	}
}

func TestLatticeWalkReachesWomanOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(129))
	opt := Options{}
	check := func(n int) {
		ins := Random(rng, n)
		m0 := GaleShapley(ins)
		chain, err := LatticeWalk(ins, m0, opt)
		if err != nil {
			t.Fatal(err)
		}
		mz := WomanOptimal(ins)
		if !chain[len(chain)-1].Equal(mz) {
			t.Fatalf("n=%d: walk did not end at the woman-optimal matching", n)
		}
		for i := 0; i < len(chain); i++ {
			if err := Verify(ins, chain[i]); err != nil {
				t.Fatalf("n=%d: chain element %d unstable: %v", n, i, err)
			}
			if i > 0 && (!Dominates(ins, chain[i-1], chain[i], opt) || chain[i].Equal(chain[i-1])) {
				t.Fatalf("n=%d: chain not strictly descending at %d", n, i)
			}
		}
		t.Logf("n=%d: chain of %d stable matchings", n, len(chain))
	}
	for trial := 0; trial < 20; trial++ {
		check(2 + rng.Intn(25))
	}
	// The T6 sizes; each step is one Algorithm 4 invocation.
	check(100)
	if !testing.Short() {
		check(400)
	}
}

func TestReducedListsRejectUnstable(t *testing.T) {
	ins := PaperFigure5()
	// Swap two partners to break stability.
	m := PaperFigure5Matching()
	m.PM[0], m.PM[1] = m.PM[1], m.PM[0]
	m.PW[m.PM[0]], m.PW[m.PM[1]] = 0, 1
	if _, err := ReducedLists(ins, m, Options{}); err == nil {
		// Not all unstable matchings are rejected (only those whose reduced
		// list drops a partner below another woman), but this particular
		// swap must be.
		t.Fatal("ReducedLists accepted a clearly unstable matching")
	}
}

func rotationKey(r Rotation) string {
	// Canonical: rotations as found start at their smallest man.
	s := ""
	for i := range r.Men {
		s += string(rune('A'+r.Men[i])) + string(rune('a'+r.Women[i]))
	}
	return s
}

func TestAllRotationsOrderIndependent(t *testing.T) {
	// Gusfield–Irving: every maximal chain eliminates the same rotation
	// set, regardless of elimination order.
	rng := rand.New(rand.NewSource(130))
	opt := Options{}
	for trial := 0; trial < 15; trial++ {
		ins := Random(rng, 3+rng.Intn(20))
		first, err := AllRotations(ins, false, opt)
		if err != nil {
			t.Fatal(err)
		}
		last, err := AllRotations(ins, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != len(last) {
			t.Fatalf("trial %d: %d rotations vs %d depending on order", trial, len(first), len(last))
		}
		set := map[string]bool{}
		for _, r := range first {
			set[rotationKey(r)] = true
		}
		for _, r := range last {
			if !set[rotationKey(r)] {
				t.Fatalf("trial %d: rotation sets differ between elimination orders", trial)
			}
		}
		// The chain length matches the rotation count + 1.
		chain, err := LatticeWalk(ins, GaleShapley(ins), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) != len(first)+1 {
			t.Fatalf("trial %d: chain length %d vs %d rotations", trial, len(chain), len(first))
		}
	}
}

func BenchmarkNextMatchings(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ins := Random(rng, 512)
	m := GaleShapley(ins)
	opt := Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NextMatchings(ins, m, opt); err != nil {
			b.Fatal(err)
		}
	}
}
