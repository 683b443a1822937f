package onesided

import (
	"math/rand"
	"testing"
)

func TestOracleAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 120; trial++ {
		ins := RandomSmall(rng, 5, 5, trial%3 == 0)
		// Probe several applicant-complete matchings of the instance.
		probe := 0
		EnumerateMatchings(ins, func(m *Matching) bool {
			probe++
			if probe > 12 {
				return false
			}
			brute := IsPopularBrute(ins, m)
			oracle := UnpopularityMargin(ins, m) <= 0
			if brute != oracle {
				t.Fatalf("trial %d: brute=%v oracle=%v margin=%d for %v",
					trial, brute, oracle, UnpopularityMargin(ins, m), m.PostOf)
			}
			return true
		})
	}
}

func TestOracleOnPaperExample(t *testing.T) {
	ins := PaperFigure1()
	m := PaperFigure1Matching(ins)
	if margin := UnpopularityMargin(ins, m); margin > 0 {
		t.Fatalf("paper matching has positive margin %d", margin)
	}
}

func TestOracleMarginPositiveForBadMatching(t *testing.T) {
	ins := PaperFigure1()
	m := NewMatching(ins)
	m.FillLastResorts(ins)
	if margin := UnpopularityMargin(ins, m); margin <= 0 {
		t.Fatalf("all-last-resort matching has margin %d, want positive", margin)
	}
}

func TestOracleMarginMatchesBestChallenger(t *testing.T) {
	// Cross-check the numeric margin (not just its sign) on tiny instances.
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 40; trial++ {
		ins := RandomSmall(rng, 4, 4, false)
		var probe *Matching
		EnumerateMatchings(ins, func(m *Matching) bool {
			probe = m.Clone()
			return false // first enumerated matching
		})
		best := -1 << 30
		EnumerateMatchings(ins, func(m *Matching) bool {
			a, b := CompareVotes(ins, m, probe)
			if a-b > best {
				best = a - b
			}
			return true
		})
		if got := UnpopularityMargin(ins, probe); got != best {
			t.Fatalf("margin = %d, want %d", got, best)
		}
	}
}
