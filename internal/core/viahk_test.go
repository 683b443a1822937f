package core

import (
	"math/rand"
	"testing"

	"repro/internal/onesided"
)

func TestPopularViaMatchingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	opt := Options{}
	for trial := 0; trial < 200; trial++ {
		ins := onesided.RandomSmall(rng, 6, 6, false)
		viaHK, err := PopularViaMatching(ins, opt)
		if err != nil {
			t.Fatal(err)
		}
		viaAlg2, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if viaHK.Exists != viaAlg2.Exists {
			t.Fatalf("trial %d: HK engine exists=%v, Algorithm 2 exists=%v",
				trial, viaHK.Exists, viaAlg2.Exists)
		}
		if viaHK.Exists {
			if err := VerifyPopular(ins, viaHK.Matching, opt); err != nil {
				t.Fatalf("trial %d: HK engine output not popular: %v", trial, err)
			}
			if !onesided.IsPopularBrute(ins, viaHK.Matching) {
				t.Fatalf("trial %d: HK engine fails brute-force popularity", trial)
			}
		}
	}
}

func TestPopularViaMatchingMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	opt := Options{}
	for trial := 0; trial < 25; trial++ {
		ins := onesided.RandomStrict(rng, 50+rng.Intn(300), 40+rng.Intn(200), 1, 6)
		viaHK, err := PopularViaMatching(ins, opt)
		if err != nil {
			t.Fatal(err)
		}
		viaAlg2, err := SolveRequest(ins, Request{Mode: ModePopular}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if viaHK.Exists != viaAlg2.Exists {
			t.Fatalf("trial %d: engines disagree on existence", trial)
		}
		if viaHK.Exists {
			if err := VerifyPopular(ins, viaHK.Matching, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPopularViaMatchingPaperExample(t *testing.T) {
	ins := onesided.PaperFigure1()
	res, err := PopularViaMatching(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists || res.Matching.Size(ins) != 8 {
		t.Fatalf("exists=%v size=%d", res.Exists, res.Matching.Size(ins))
	}
	if err := VerifyPopular(ins, res.Matching, Options{}); err != nil {
		t.Fatal(err)
	}
}
