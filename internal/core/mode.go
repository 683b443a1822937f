package core

import "fmt"

// Mode selects a solve surface of the unified engine. It is the ONE enum
// every layer speaks: core dispatches on it, popmatch re-exports it, the
// serve request layer and the CLIs parse it off the wire. Adding a mode means
// adding a case to the engine dispatch — every caller picks it up for free.
type Mode uint8

const (
	// ModePopular finds any popular matching with Algorithm 1 (strict lists;
	// instances constructed with a capacity vector route through the clone
	// reduction, dispatching on strictness inside). Plain instances with
	// tied lists are rejected — pick ModeTies explicitly for those.
	ModePopular Mode = iota
	// ModeMaxCard finds a maximum-cardinality popular matching (Algorithm 3;
	// the same strictness and capacity routing as ModePopular).
	ModeMaxCard
	// ModeTies runs the §V ties solver directly (valid for strict lists too).
	// Its popular matching also has maximum cardinality.
	ModeTies
	// ModeTiesMax is ModeTies: the same solver, which already maximizes
	// cardinality.
	ModeTiesMax
	// ModeMaxWeight finds a maximum-weight popular matching (§IV-E). A nil
	// Request.Weights selects the built-in cardinality weights (1 per real
	// post, 0 per last resort), making it equivalent to ModeMaxCard.
	ModeMaxWeight
	// ModeMinWeight is the minimizing twin of ModeMaxWeight. With the
	// built-in cardinality weights it finds a minimum-cardinality popular
	// matching.
	ModeMinWeight
	// ModeRankMaximal finds a popular matching whose profile is
	// lexicographically maximal under ≻_R (§IV-E).
	ModeRankMaximal
	// ModeFair finds a fair popular matching (profile minimal under ≺_F;
	// §IV-E).
	ModeFair

	numModes
)

// Modes lists every valid mode in wire order.
var Modes = []Mode{
	ModePopular, ModeMaxCard, ModeTies, ModeTiesMax,
	ModeMaxWeight, ModeMinWeight, ModeRankMaximal, ModeFair,
}

var modeNames = [numModes]string{
	ModePopular:     "popular",
	ModeMaxCard:     "maxcard",
	ModeTies:        "ties",
	ModeTiesMax:     "tiesmax",
	ModeMaxWeight:   "maxweight",
	ModeMinWeight:   "minweight",
	ModeRankMaximal: "rankmaximal",
	ModeFair:        "fair",
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m < numModes }

// String returns the canonical wire name of the mode.
func (m Mode) String() string {
	if m.Valid() {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode maps a wire-format mode string to its Mode. Besides the
// canonical names it accepts "rankmax" (the historical CLI spelling of
// rankmaximal).
func ParseMode(s string) (Mode, error) {
	if s == "rankmax" {
		return ModeRankMaximal, nil
	}
	for _, m := range Modes {
		if s == modeNames[m] {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (valid: %s)", s, ModeNames())
}

// ModeNames returns the canonical mode names, comma-separated — the help
// string every parser surface shares.
func ModeNames() string {
	out := ""
	for i, m := range Modes {
		if i > 0 {
			out += ", "
		}
		out += modeNames[m]
	}
	return out
}
