// Package popmatch is the public API for the NC popular matching algorithms
// of Hu & Garg, "NC Algorithms for Popular Matchings in One-Sided Preference
// Systems and Related Problems" (IPDPS 2020).
//
// An instance is a set of applicants, each ranking a non-empty subset of
// posts (strictly, or with ties). A matching M is popular if no other
// matching M′ is preferred by strictly more applicants than prefer M. This
// package finds popular matchings, maximum-cardinality popular matchings,
// and optimal (max/min weight, rank-maximal, fair) popular matchings with
// bulk-synchronous parallel algorithms whose round counts are
// polylogarithmic — the paper's NC bounds — and solves the ties variant with
// the Abraham–Irving–Kavitha–Mehlhorn characterization.
//
// # Quick start
//
// Every solve is one Request, whose Mode picks the algorithm:
//
//	ins, _ := popmatch.NewStrict(9, lists) // posts ranked per applicant
//	res, _ := popmatch.SolveRequest(ins, popmatch.Request{Mode: popmatch.ModePopular}, popmatch.Options{})
//	if res.Exists {
//	    for a, p := range res.Matching.PostOf { ... }
//	}
//
// SolveRequest runs on a throwaway Solver; a program solving many instances
// holds one Solver and calls its SolveRequest or SolveRequestInto, which
// reuse the worker pool and the scratch memory. Options sets the worker
// pool (the zero value uses every CPU), and Request.Trace asks for a
// solve's rounds, work and per-phase wall time.
//
// # Capacitated posts
//
// Posts may hold more than one applicant (capacitated house allocation):
//
//	ins, _ := popmatch.NewCapacitated([]int32{2, 1}, lists) // p0 has 2 seats
//	res, _ := popmatch.SolveRequest(ins, popmatch.Request{Mode: popmatch.ModePopular}, popmatch.Options{})
//	if res.Exists {
//	    _ = res.Assignment.AssignedTo(0) // applicants sharing p0
//	}
//
// Capacitated instances reduce to the unit model by post cloning (capacity-c
// posts become c tied unit posts) and are solved with the ties machinery:
// ModePopular, ModeMaxCard, ModeTies and ModeTiesMax route them
// automatically and report the result in Result.Assignment. Unit-capacity
// vectors return the same matching as an instance without one. The other
// modes, Count, EnumerateAll and Solver.Verify return an error rather than
// silently ignoring capacities.
package popmatch

import (
	"context"
	"math/big"
	"math/rand"

	"repro/internal/core"
	"repro/internal/onesided"
)

// Instance is a one-sided preference instance. Construct with NewStrict,
// NewWithTies, NewCapacitated, Read, or the generators.
type Instance = onesided.Instance

// Matching assigns applicants to posts; see PostOf/ApplicantOf.
type Matching = onesided.Matching

// Assignment is a many-to-one matching of a capacitated instance: PostOf is
// the per-applicant view (original post ids, as in Matching.PostOf) and
// AssignedTo(post) the per-post applicant lists.
type Assignment = onesided.Assignment

// Rotation-free re-exports of the instance constructors and helpers.
var (
	// NewStrict builds a strictly-ordered instance from per-applicant post
	// lists (most preferred first).
	NewStrict = onesided.NewStrict
	// NewWithTies builds an instance with explicit 1-based, contiguous,
	// nondecreasing ranks (equal rank = tie).
	NewWithTies = onesided.NewWithTies
	// NewCapacitated builds a strictly-ordered capacitated (CHA) instance:
	// post p may hold up to capacities[p] applicants, and len(capacities)
	// determines the number of posts. NewCapacitatedWithTies is the
	// explicit-ranks variant. Capacitated instances are solved through the
	// post-cloning reduction; see the package doc.
	NewCapacitated         = onesided.NewCapacitated
	NewCapacitatedWithTies = onesided.NewCapacitatedWithTies
	// Read parses the text format; Write emits it. Capacitated instances
	// carry an optional `c <caps...>` header line after `posts <n>`;
	// unit-capacity files are unchanged.
	Read  = onesided.Read
	Write = onesided.Write
	// ReadAuto reads either format, sniffing the binary magic — the default
	// ingest surface for files and stdin. ReadBinary/WriteBinary are the
	// binary (zero-copy columnar) format directly; see the onesided package
	// for the byte layout.
	ReadAuto    = onesided.ReadAuto
	ReadBinary  = onesided.ReadBinary
	WriteBinary = onesided.WriteBinary
	// Profile computes the paper's §IV-E matching profile; ProfileOf is the
	// shared form over a per-applicant post vector (use it with
	// Assignment.PostOf, or call Assignment.Profile).
	Profile              = onesided.Profile
	AssignmentFromPostOf = onesided.AssignmentFromPostOf
	ProfileOf            = onesided.ProfileOf
	// PaperInstance is the worked example of Figure 1 of the paper.
	PaperInstance = onesided.PaperFigure1
)

// Mode selects a solve surface of the unified engine — the same enum at
// every layer (core, this package, the serve request layer, the CLIs). See
// Solver.SolveRequest.
type Mode = core.Mode

// The mode constants, re-exported from the core engine.
const (
	ModePopular     = core.ModePopular
	ModeMaxCard     = core.ModeMaxCard
	ModeTies        = core.ModeTies
	ModeTiesMax     = core.ModeTiesMax
	ModeMaxWeight   = core.ModeMaxWeight
	ModeMinWeight   = core.ModeMinWeight
	ModeRankMaximal = core.ModeRankMaximal
	ModeFair        = core.ModeFair
)

// Modes lists every valid mode; ParseMode maps a wire-format mode string
// (e.g. "maxcard") to its Mode, and ModeNames is the canonical help string.
var (
	Modes     = core.Modes
	ParseMode = core.ParseMode
	ModeNames = core.ModeNames
)

// Request describes one solve for SolveRequest: the mode plus the optional
// weight function of the weighted modes (nil selects the built-in
// cardinality weights — 1 per real post, 0 per last resort).
type Request struct {
	Mode    Mode
	Weights WeightFn
	// Trace, when non-nil, is filled with this solve's per-phase cost
	// breakdown: rounds and work (the PRAM costs the paper's NC bounds are
	// stated in), wall time and barrier waits. The solve runs on a
	// solve-local tracer, so the trace is exact even when other solves
	// share the Solver. See SolveTrace for the reuse contract.
	Trace *SolveTrace
}

// Options configures a Solver handle (or the throwaway one of a
// package-level call).
type Options struct {
	// Workers sets the goroutine pool size; 0 shares the process-wide
	// persistent pool (all CPUs), 1 is fully sequential and deterministic.
	Workers int
}

// oneShot runs fn on a throwaway Solver.
func oneShot[T any](o Options, fn func(*Solver) (T, error)) (T, error) {
	s := NewSolver(o)
	defer s.Close()
	return fn(s)
}

// Result reports a solver outcome.
type Result struct {
	// Matching is nil when Exists is false, and also nil when the solved
	// instance is capacitated (a many-to-one result cannot be represented as
	// a unit Matching) — use Assignment then.
	Matching *Matching
	// Assignment is the many-to-one result for instances constructed with a
	// capacity vector (NewCapacitated, or SetCapacities); nil for instances
	// without one. Its PostOf view uses original post ids, so Profile,
	// ranks and vote comparisons work unchanged.
	Assignment *Assignment
	// Exists reports whether a popular matching exists at all.
	Exists bool
	// Size is the number of applicants matched to real posts.
	Size int
	// PeelRounds is the number of while-loop rounds Algorithm 2 used
	// (Lemma 2 bounds it by ceil(log2 n)+1); -1 when not applicable.
	PeelRounds int

	// cloneMatching retains the cloned-instance matching of a capacitated
	// result (which the public surface exposes only as Assignment), so
	// SolveRequestInto can recycle its buffers on the next solve.
	cloneMatching *Matching
}

// wrapOutcome projects a core engine Outcome onto the public Result shape:
// unit results expose the Matching, capacitated ones the Assignment (plus
// the Matching when an explicit all-ones capacity vector took the unit path
// underneath, so that case is a strict superset of the historical API).
func wrapOutcome(ins *Instance, out core.Outcome) Result {
	res := Result{Exists: out.Exists, PeelRounds: -1}
	if out.Peel.Valid {
		res.PeelRounds = out.Peel.Rounds
	}
	if !out.Exists {
		return res
	}
	if out.Assignment != nil {
		res.Assignment = out.Assignment
		res.Size = out.Assignment.Size(ins)
		if ins.UnitCapacity() {
			res.Matching = out.Matching
		} else {
			res.cloneMatching = out.Matching
		}
		return res
	}
	res.Matching = out.Matching
	res.Size = out.Matching.Size(ins)
	return res
}

// SolveRequest solves one Request with a throwaway Solver; services should
// hold a Solver and call its SolveRequest instead to amortize the pool and
// the engine's scratch.
func SolveRequest(ins *Instance, req Request, o Options) (Result, error) {
	return oneShot(o, func(s *Solver) (Result, error) {
		return s.SolveRequest(context.Background(), ins, req)
	})
}

// WeightFn scores assigning applicant a to post p (p may be a's last
// resort, id NumPosts+a).
type WeightFn = core.WeightFn

// Count returns the exact number of popular matchings (0 if none), without
// enumeration, using Theorem 9's product structure over the switching-graph
// components.
func Count(ins *Instance, o Options) (*big.Int, error) {
	if err := requireUnit(ins, "Count"); err != nil {
		return nil, err
	}
	return oneShot(o, func(s *Solver) (*big.Int, error) {
		opt, sess, err := s.session(context.Background())
		if err != nil {
			return nil, err
		}
		defer s.putSession(sess)
		return core.CountPopular(ins, opt)
	})
}

// EnumerateAll yields every popular matching exactly once (Theorem 9's
// bijection). The matching passed to yield is reused; clone to retain it.
// The count is exponential in the number of switching-graph components.
func EnumerateAll(ins *Instance, o Options, yield func(*Matching) bool) (bool, error) {
	if err := requireUnit(ins, "EnumerateAll"); err != nil {
		return false, err
	}
	return oneShot(o, func(s *Solver) (bool, error) {
		opt, sess, err := s.session(context.Background())
		if err != nil {
			return false, err
		}
		defer s.putSession(sess)
		return core.EnumerateAllPopular(ins, opt, yield)
	})
}

// Generators re-exported for examples, tools and experiments.

// RandomStrict generates uniform random strict lists.
func RandomStrict(rng *rand.Rand, applicants, posts, minLen, maxLen int) *Instance {
	return onesided.RandomStrict(rng, applicants, posts, minLen, maxLen)
}

// RandomZipf generates skewed lists (low-id posts are hot).
func RandomZipf(rng *rand.Rand, applicants, posts, listLen int, skew float64) *Instance {
	return onesided.RandomStrictZipf(rng, applicants, posts, listLen, skew)
}

// RandomTies generates lists with tie classes.
func RandomTies(rng *rand.Rand, applicants, posts, minLen, maxLen int, tieProb float64) *Instance {
	return onesided.RandomTies(rng, applicants, posts, minLen, maxLen, tieProb)
}

// RandomCapacitated generates a capacitated instance: strict uniform lists
// plus per-post capacities uniform in [1, maxCap].
func RandomCapacitated(rng *rand.Rand, applicants, posts, minLen, maxLen, maxCap int) *Instance {
	return onesided.RandomCapacitated(rng, applicants, posts, minLen, maxLen, maxCap)
}

// RandomCapacitatedTies is RandomCapacitated with tie classes.
func RandomCapacitatedTies(rng *rand.Rand, applicants, posts, minLen, maxLen, maxCap int, tieProb float64) *Instance {
	return onesided.RandomCapacitatedTies(rng, applicants, posts, minLen, maxLen, maxCap, tieProb)
}

// RandomCapacities draws a per-post capacity vector uniform in [1, maxCap],
// for attaching to any generated instance via Instance.SetCapacities.
func RandomCapacities(rng *rand.Rand, posts, maxCap int) []int32 {
	return onesided.RandomCapacities(rng, posts, maxCap)
}

// Solvable generates instances guaranteed to admit a popular matching.
func Solvable(rng *rand.Rand, applicants, extraPosts, listLen int) *Instance {
	return onesided.Solvable(rng, applicants, extraPosts, listLen)
}

// Unsolvable generates instances with no popular matching.
func Unsolvable(groups int) *Instance { return onesided.Unsolvable(groups) }

// BinaryBroom generates the adversarial instance driving Algorithm 2's
// while loop through `depth` rounds (the Lemma 2 worst case).
func BinaryBroom(depth int) *Instance { return onesided.BinaryBroom(depth) }
