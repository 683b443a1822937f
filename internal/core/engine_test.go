package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// engineCorpus is the differential workload: every instance flavor the
// engine routes — strict solvable/unsolvable, tied, capacitated (strict and
// tied, contended and slack), adversarial brooms, unit edge cases — at
// small-to-medium sizes so the whole matrix stays fast.
func engineCorpus() []*onesided.Instance {
	rng := rand.New(rand.NewSource(20260726))
	var out []*onesided.Instance
	add := func(ins *onesided.Instance) { out = append(out, ins) }
	add(onesided.PaperFigure1())
	add(onesided.Unsolvable(2))
	add(onesided.BinaryBroom(4))
	for i := 0; i < 6; i++ {
		add(onesided.RandomStrict(rng, 20+7*i, 18+5*i, 1, 5))
		add(onesided.Solvable(rng, 25+5*i, 6, 4))
		add(onesided.RandomTies(rng, 18+6*i, 14+4*i, 1, 4, 0.4))
		add(onesided.RandomCapacitated(rng, 20+6*i, 8+2*i, 2, 4, 3))
		add(onesided.RandomCapacitatedTies(rng, 16+4*i, 7+2*i, 2, 4, 3, 0.3))
	}
	// An explicit all-ones capacity vector (the unit bypass inside the
	// capacitated route).
	unitCaps := onesided.RandomStrict(rng, 24, 20, 1, 5)
	caps := make([]int32, 20)
	for i := range caps {
		caps[i] = 1
	}
	if err := unitCaps.SetCapacities(caps); err != nil {
		panic(err)
	}
	add(unitCaps)
	return out
}

// modesFor lists the modes defined on this instance shape: capacitated
// instances take the four clone-reduction modes, tied lists the ties modes.
func modesFor(ins *onesided.Instance) []Mode {
	if ins.Capacities != nil {
		return []Mode{ModePopular, ModeMaxCard, ModeTies, ModeTiesMax}
	}
	if !ins.CSR().Strict() {
		return []Mode{ModeTies, ModeTiesMax}
	}
	return Modes // every mode is defined on strict unit instances
}

// referenceSolve answers one mode on a fresh engine (opt carries no arena,
// so every call builds new kernels and scratch) as a per-applicant post
// vector, existence flag included; capacitated instances report the folded
// assignment.
func referenceSolve(t *testing.T, ins *onesided.Instance, mode Mode, w WeightFn, opt Options) (bool, []int32) {
	t.Helper()
	out, err := SolveRequest(ins, Request{Mode: mode, Weights: w}, opt)
	if err != nil {
		t.Fatalf("reference %s: %v", mode, err)
	}
	if !out.Exists {
		return false, nil
	}
	if ins.Capacities != nil {
		return true, append([]int32(nil), out.Assignment.PostOf...)
	}
	return true, append([]int32(nil), out.Matching.PostOf...)
}

// TestEngineDifferentialCorpus drives every mode of every corpus instance
// through core.SolveRequest on ONE reused session engine (arena-cached
// kernels, recycled scratch, a recycled Into matching) and asserts the
// outcome is bit-identical to a fresh engine's. Each mode also runs twice
// on the reused engine, so scratch pollution between modes or between
// solves would be caught.
func TestEngineDifferentialCorpus(t *testing.T) {
	pool := par.NewPool(1) // sequential: fully deterministic on both sides
	defer pool.Close()
	arena := exec.NewArena()
	cx := exec.New(exec.Config{Pool: pool, Arena: arena})
	reused := Options{Exec: cx}
	fresh := Options{Pool: pool} // no arena: a fresh engine per call

	weights := func(ins *onesided.Instance) WeightFn {
		return func(a, p int32) int64 {
			if ins.IsLastResort(p) {
				return -int64(a % 3)
			}
			return int64((int(p)+2*int(a))%7) - 2
		}
	}

	var recycled onesided.Matching
	for i, ins := range engineCorpus() {
		w := weights(ins)
		for _, mode := range modesFor(ins) {
			wantExists, wantPostOf := referenceSolve(t, ins, mode, w, fresh)
			for round := 0; round < 2; round++ {
				out, err := SolveRequest(ins, Request{Mode: mode, Weights: w, Into: &recycled}, reused)
				if err != nil {
					t.Fatalf("instance %d mode %s round %d: %v", i, mode, round, err)
				}
				if out.Exists != wantExists {
					t.Fatalf("instance %d mode %s round %d: exists=%v, fresh=%v",
						i, mode, round, out.Exists, wantExists)
				}
				if !out.Exists {
					continue
				}
				got := out.Matching.PostOf
				if ins.Capacities != nil {
					got = out.Assignment.PostOf
					if out.Assignment == nil {
						t.Fatalf("instance %d mode %s: capacitated result without assignment", i, mode)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(wantPostOf) {
					t.Fatalf("instance %d mode %s round %d: reused %v, fresh %v",
						i, mode, round, got, wantPostOf)
				}
				if out.Matching != nil {
					recycled = *out.Matching
				}
			}
		}
	}
}

// TestEngineRejectsInvalidRequests pins the engine's error surface: an
// out-of-range mode, weighted modes on capacitated instances, and strict
// modes on tied lists all fail cleanly instead of mis-solving.
func TestEngineRejectsInvalidRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := SolveRequest(onesided.PaperFigure1(), Request{Mode: Mode(250)}, Options{}); err == nil {
		t.Fatal("invalid mode accepted")
	}
	capIns := onesided.RandomCapacitated(rng, 12, 6, 2, 3, 3)
	for _, mode := range []Mode{ModeMaxWeight, ModeMinWeight, ModeRankMaximal, ModeFair} {
		if _, err := SolveRequest(capIns, Request{Mode: mode}, Options{}); err == nil {
			t.Fatalf("mode %s accepted a capacitated instance", mode)
		}
	}
	tied := onesided.RandomTies(rng, 12, 9, 1, 3, 0.6)
	for tied.CSR().Strict() {
		tied = onesided.RandomTies(rng, 12, 9, 1, 3, 0.6)
	}
	for _, mode := range []Mode{ModePopular, ModeMaxCard} {
		if _, err := SolveRequest(tied, Request{Mode: mode}, Options{}); err == nil {
			t.Fatalf("mode %s accepted tied lists", mode)
		}
	}
}

// TestEngineMaxWeightDefaultsToCardinality pins the built-in weights: a nil
// Weights on the weighted modes selects the cardinality criterion, so
// maxweight matches maxcard's size on every solvable strict instance.
func TestEngineMaxWeightDefaultsToCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		ins := onesided.Solvable(rng, 30, 8, 4)
		mw, err := SolveRequest(ins, Request{Mode: ModeMaxWeight}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := SolveRequest(ins, Request{Mode: ModeMaxCard}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !mw.Exists || !mc.Exists {
			t.Fatalf("trial %d: solvable instance unsolvable (%v/%v)", trial, mw.Exists, mc.Exists)
		}
		if mw.Matching.Size(ins) != mc.Matching.Size(ins) {
			t.Fatalf("trial %d: maxweight size %d, maxcard size %d",
				trial, mw.Matching.Size(ins), mc.Matching.Size(ins))
		}
	}
}

// TestParseModeRoundTrip pins the wire names and the historical rankmax
// alias.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode("rankmax"); err != nil || m != ModeRankMaximal {
		t.Fatalf("rankmax alias: %v, %v", m, err)
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if !Mode(0).Valid() || Mode(200).Valid() {
		t.Fatal("Valid misclassifies")
	}
}

// TestWeightedBigPoolParallelRounds is the regression test for the pooled
// big.Int allocator: the ops hooks run inside parallel cx.For bodies, so
// the switching graph must exceed the pool's serial grain (256) with
// multiple workers for the pool to be hit concurrently. Three rounds on one
// engine cover the slab-growing reset path; results must match a fresh
// single-shot solve.
func TestWeightedBigPoolParallelRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ins := onesided.Solvable(rng, 3000, 600, 6)
	pool := par.NewPool(4)
	defer pool.Close()
	arena := exec.NewArena()
	cx := exec.New(exec.Config{Pool: pool, Arena: arena})
	reused := Options{Exec: cx}
	for _, mode := range []Mode{ModeRankMaximal, ModeFair} {
		want, err := SolveRequest(ins, Request{Mode: mode}, Options{Pool: pool})
		if err != nil || !want.Exists {
			t.Fatalf("%s baseline: exists=%v err=%v", mode, want.Exists, err)
		}
		for round := 0; round < 3; round++ {
			out, err := SolveRequest(ins, Request{Mode: mode}, reused)
			if err != nil {
				t.Fatalf("%s round %d: %v", mode, round, err)
			}
			if !out.Exists {
				t.Fatalf("%s round %d: unsolvable", mode, round)
			}
			for a := range want.Matching.PostOf {
				if out.Matching.PostOf[a] != want.Matching.PostOf[a] {
					t.Fatalf("%s round %d: applicant %d drifted", mode, round, a)
				}
			}
		}
	}
}
