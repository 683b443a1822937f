package popmatch

import (
	"context"
	"math/rand"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	ins := PaperInstance()
	var tr SolveTrace
	res, err := SolveRequest(ins, Request{Mode: ModePopular, Trace: &tr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists || res.Size != 8 {
		t.Fatalf("exists=%v size=%d, want true/8", res.Exists, res.Size)
	}
	if res.PeelRounds != 1 {
		t.Fatalf("PeelRounds = %d, want 1", res.PeelRounds)
	}
	if tr.Rounds == 0 || tr.Work == 0 {
		t.Fatal("tracing recorded nothing")
	}
	s := newTestSolver(t, Options{})
	if err := s.Verify(context.Background(), ins, res.Matching); err != nil {
		t.Fatal(err)
	}
	if m, err := s.UnpopularityMargin(context.Background(), ins, res.Matching); err != nil || m > 0 {
		t.Fatalf("margin = %d, %v", m, err)
	}
}

func TestWorkerOptionMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ins := RandomStrict(rng, 500, 400, 1, 6)
	r1, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Exists != rn.Exists {
		t.Fatal("existence depends on worker count")
	}
	if r1.Exists && r1.Size != rn.Size {
		// Plain popular matchings can have different sizes, but the
		// algorithm is deterministic given the instance, independent of
		// scheduling.
		t.Fatalf("size differs across worker counts: %d vs %d", r1.Size, rn.Size)
	}
}

func TestAllSolversOnOneInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ins := RandomStrict(rng, 120, 80, 2, 6)
	o := Options{}
	plain, err := SolveRequest(ins, Request{Mode: ModePopular}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Exists {
		t.Skip("instance unsolvable; generator-dependent")
	}
	mc, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, o)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := SolveRequest(ins, Request{Mode: ModeFair}, o)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := SolveRequest(ins, Request{Mode: ModeRankMaximal}, o)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSolver(t, o)
	for name, r := range map[string]Result{"maxcard": mc, "fair": fair, "rankmax": rm} {
		if !r.Exists {
			t.Fatalf("%s: lost existence", name)
		}
		if err := s.Verify(context.Background(), ins, r.Matching); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if mc.Size < plain.Size || fair.Size != mc.Size {
		t.Fatalf("sizes: plain=%d maxcard=%d fair=%d", plain.Size, mc.Size, fair.Size)
	}
}

func TestMaxMinWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ins := RandomStrict(rng, 40, 30, 2, 5)
	o := Options{}
	w := func(a, p int32) int64 {
		if int(p) >= ins.NumPosts {
			return 0
		}
		return int64((int(a)*7+int(p)*13)%10 + 1)
	}
	mx, err := SolveRequest(ins, Request{Mode: ModeMaxWeight, Weights: w}, o)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := SolveRequest(ins, Request{Mode: ModeMinWeight, Weights: w}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !mx.Exists {
		t.Skip("unsolvable draw")
	}
	score := func(m *Matching) int64 {
		var s int64
		for a, p := range m.PostOf {
			s += w(int32(a), p)
		}
		return s
	}
	if score(mx.Matching) < score(mn.Matching) {
		t.Fatalf("max weight %d < min weight %d", score(mx.Matching), score(mn.Matching))
	}
}

func TestSolveTiesPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ins := RandomTies(rng, 30, 20, 1, 5, 0.4)
	res, err := SolveRequest(ins, Request{Mode: ModeTiesMax}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists {
		m, err := newTestSolver(t, Options{}).UnpopularityMargin(context.Background(), ins, res.Matching)
		if err != nil || m > 0 {
			t.Fatalf("ties result unpopular, margin %d, %v", m, err)
		}
	}
}

func TestEnumerateAllPublic(t *testing.T) {
	ins := PaperInstance()
	n := 0
	exists, err := EnumerateAll(ins, Options{}, func(m *Matching) bool {
		n++
		return true
	})
	if err != nil || !exists || n != 6 {
		t.Fatalf("enumerated %d (exists=%v, err=%v), want 6", n, exists, err)
	}
	count, err := Count(ins, Options{})
	if err != nil || count.Int64() != 6 {
		t.Fatalf("Count = %v (err=%v), want 6", count, err)
	}
}

func TestGeneratorsExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if Unsolvable(2).NumApplicants != 6 {
		t.Fatal("Unsolvable wrong shape")
	}
	if BinaryBroom(3).NumPosts != 15 {
		t.Fatal("BinaryBroom wrong shape")
	}
	if got := RandomZipf(rng, 10, 20, 3, 1.2); got.NumApplicants != 10 {
		t.Fatal("RandomZipf wrong shape")
	}
	s := Solvable(rng, 10, 5, 3)
	res, err := SolveRequest(s, Request{Mode: ModePopular}, Options{})
	if err != nil || !res.Exists {
		t.Fatal("Solvable instance unsolvable")
	}
}
