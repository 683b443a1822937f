// Package onesided models one-sided preference systems: a set of applicants,
// each ranking a non-empty subset of posts, possibly with ties (§II-A of the
// paper). It provides matchings, the "more popular than" vote comparison,
// last-resort augmentation, brute-force popularity oracles for testing,
// instance generators (including the adversarial families used by the
// experiments), and a text interchange format.
package onesided

import (
	"fmt"
	"sync/atomic"
)

// Instance is a popular-matching instance: a bipartite graph between
// applicants 0..NumApplicants-1 and posts 0..NumPosts-1 with ranked edges.
//
// Lists[a] holds the posts on applicant a's preference list, most preferred
// first; Ranks[a][i] is the rank of Lists[a][i] (1-based, nondecreasing along
// the list; equal ranks are ties). A strictly-ordered instance has ranks
// 1,2,...,len.
//
// Following §II, every applicant additionally has a unique virtual
// last-resort post l(a) = NumPosts + a, ranked strictly below everything on
// the list. Last resorts are not stored in Lists; code paths that need them
// use LastResort and TotalPosts.
//
// Capacities, when non-nil, turns the instance into a capacitated house
// allocation (CHA) instance: post p may hold up to Capacities[p] applicants.
// A nil vector means every post has capacity 1 (the paper's model). The
// capacitated case reduces to the unit case by post cloning; see Expand.
//
// # Immutability contract
//
// An Instance lazily derives and caches the flat CSR form the solvers share
// (CSR). Once that accessor — or any solver, which uses it internally — has
// run, the instance must be treated as immutable: mutating Lists, Ranks or
// Capacities in place would silently serve stale derived data to later
// calls. Callers that must mutate an already-used instance call Invalidate
// afterwards to drop the caches (SetCapacities does so automatically);
// builds with the `debug` tag verify the CSR against a fingerprint of the
// lists on every CSR call and panic on staleness.
type Instance struct {
	NumApplicants int
	NumPosts      int
	Lists         [][]int32
	Ranks         [][]int32
	Capacities    []int32

	csrCache atomic.Pointer[CSR]
	fpCache  atomic.Pointer[string]
	expCache atomic.Pointer[Expansion]
	digests  atomic.Pointer[rowDigests]

	// Delta-solve state, owned by the mutation API (delta.go). epoch counts
	// mutations, log journals the recent ones for DirtySince, and tied
	// maintains the CSR strictness flag as a count+1 of tied rows (0 =
	// unknown, recount lazily).
	epoch uint64
	log   mutLog
	tied  int
}

// NewStrict builds a strictly-ordered instance: lists[a][i] has rank i+1.
func NewStrict(numPosts int, lists [][]int32) (*Instance, error) {
	ranks := make([][]int32, len(lists))
	for a, l := range lists {
		r := make([]int32, len(l))
		for i := range l {
			r[i] = int32(i + 1)
		}
		ranks[a] = r
	}
	ins := &Instance{NumApplicants: len(lists), NumPosts: numPosts, Lists: lists, Ranks: ranks}
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return ins, nil
}

// NewWithTies builds an instance with explicit ranks (ties allowed).
func NewWithTies(numPosts int, lists [][]int32, ranks [][]int32) (*Instance, error) {
	ins := &Instance{NumApplicants: len(lists), NumPosts: numPosts, Lists: lists, Ranks: ranks}
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return ins, nil
}

// Validate checks structural invariants: one list and one rank row per
// applicant, every row obeying the row rule (checkRow), and (when present) a
// capacity vector obeying the capacity rule (checkCapacities). Duplicate
// detection goes through dupSet — one stamp array over the posts when the
// post space is data-backed, a map when a tiny input declares a huge one —
// so validating a large instance is a pair of linear passes and memory never
// exceeds the input size.
func (ins *Instance) Validate() error {
	if ins.NumPosts < 0 {
		return fmt.Errorf("negative post count %d", ins.NumPosts)
	}
	if len(ins.Lists) != ins.NumApplicants || len(ins.Ranks) != ins.NumApplicants {
		return fmt.Errorf("%d applicants but %d lists / %d rank rows",
			ins.NumApplicants, len(ins.Lists), len(ins.Ranks))
	}
	if err := checkCapacities(ins.NumPosts, ins.Capacities); err != nil {
		return err
	}
	edges := 0
	for _, l := range ins.Lists {
		edges += len(l)
	}
	seen := newDupSet(ins.NumPosts, edges)
	for a, l := range ins.Lists {
		if _, err := checkRow(a, l, ins.Ranks[a], ins.NumPosts, &seen); err != nil {
			return err
		}
	}
	return nil
}

// checkRow is the row rule, shared by every surface that accepts preference
// rows (Validate, the binary decoder and the mutation API): applicant a's
// row is non-empty, has one rank per post, lists distinct posts in
// [0, numPosts), and ranks them 1-based, nondecreasing and contiguous (equal
// ranks are ties). seen carries the duplicate check across rows, marked with
// the stamp a+1. It reports whether the row holds a tie, so a caller that
// walks every row derives strictness in the same pass.
func checkRow(a int, posts, ranks []int32, numPosts int, seen *dupSet) (tied bool, err error) {
	if len(posts) == 0 {
		return false, fmt.Errorf("applicant %d has an empty preference list", a)
	}
	if len(ranks) != len(posts) {
		return false, fmt.Errorf("applicant %d has %d posts but %d ranks", a, len(posts), len(ranks))
	}
	stamp := int32(a) + 1
	for i, p := range posts {
		if p < 0 || int(p) >= numPosts {
			return false, fmt.Errorf("applicant %d lists out-of-range post %d", a, p)
		}
		if seen.mark(p, stamp) {
			return false, fmt.Errorf("applicant %d lists post %d twice", a, p)
		}
		switch r := ranks[i]; {
		case i == 0:
			if r != 1 {
				return false, fmt.Errorf("applicant %d first rank is %d, want 1", a, r)
			}
		case r == ranks[i-1]:
			tied = true
		case r != ranks[i-1]+1:
			return false, fmt.Errorf("applicant %d ranks not contiguous at position %d", a, i)
		}
	}
	return tied, nil
}

// checkCapacities is the capacity rule for a whole vector: nil (unit
// capacities), or one capacity per post, each obeying checkCapacity.
func checkCapacities(numPosts int, caps []int32) error {
	if caps == nil {
		return nil
	}
	if len(caps) != numPosts {
		return fmt.Errorf("%d posts but %d capacities", numPosts, len(caps))
	}
	for p, c := range caps {
		if err := checkCapacity(p, c); err != nil {
			return err
		}
	}
	return nil
}

// checkCapacity is the capacity rule for one post: it holds at least one
// applicant.
func checkCapacity(p int, c int32) error {
	if c < 1 {
		return fmt.Errorf("post %d has capacity %d, want >= 1", p, c)
	}
	return nil
}

// dupSet detects duplicate posts within an applicant's row. When the post
// space is data-backed (at most a small multiple of the edge count) it is one
// stamp array over the posts — two linear passes, no hashing. A declared post
// space vastly larger than the edge set (legal, but typical only of hostile
// or degenerate inputs: a tiny file claiming 10^9 posts) falls back to a map
// so validation memory stays proportional to the actual input, never to an
// unvalidated claim.
type dupSet struct {
	stamps []int32 // stamps[p] == a+1 iff applicant a listed p
	m      map[int32]int32
}

func newDupSet(numPosts, edges int) dupSet {
	if numPosts <= 4*edges+64 {
		return dupSet{stamps: make([]int32, numPosts)}
	}
	return dupSet{m: make(map[int32]int32, min(edges, 16))}
}

// mark records that the applicant with the given stamp lists post p and
// reports whether that applicant already listed it.
func (d *dupSet) mark(p, stamp int32) bool {
	if d.m == nil {
		if d.stamps[p] == stamp {
			return true
		}
		d.stamps[p] = stamp
		return false
	}
	if d.m[p] == stamp {
		return true
	}
	d.m[p] = stamp
	return false
}

// Capacity returns the capacity of real post p (1 when Capacities is nil).
func (ins *Instance) Capacity(p int32) int32 {
	if ins.Capacities == nil {
		return 1
	}
	return ins.Capacities[p]
}

// UnitCapacity reports whether every post has capacity 1 — the paper's
// original model. Instances with a nil capacity vector, or an explicit
// all-ones vector, are unit-capacity and solved by the unmodified unit-post
// algorithms; anything else goes through the clone reduction (Expand).
func (ins *Instance) UnitCapacity() bool {
	for _, c := range ins.Capacities {
		if c != 1 {
			return false
		}
	}
	return true
}

// TotalCapacity is the sum of real-post capacities (NumPosts when the
// instance is unit-capacity).
func (ins *Instance) TotalCapacity() int {
	if ins.Capacities == nil {
		return ins.NumPosts
	}
	total := 0
	for _, c := range ins.Capacities {
		total += int(c)
	}
	return total
}

// SetCapacities attaches a per-post capacity vector (nil restores unit
// capacities), validating it against the instance. It invalidates the
// derived caches, since the CSR form carries the capacity vector.
func (ins *Instance) SetCapacities(caps []int32) error {
	old := ins.Capacities
	ins.Capacities = caps
	if err := ins.Validate(); err != nil {
		ins.Capacities = old
		return err
	}
	ins.Invalidate()
	return nil
}

// Invalidate drops the lazily derived caches (the CSR form, the content
// fingerprint and its row digests). Call it after mutating Lists, Ranks or
// Capacities of an instance that has already been solved or queried; see
// the immutability contract on Instance. Prefer the mutation API
// (SetPreferences and friends, delta.go), which patches the caches in place
// instead of dropping them and keeps the mutation journal replayable;
// Invalidate advances the epoch wholesale, so delta solvers holding an older
// epoch fall back to a full solve.
func (ins *Instance) Invalidate() {
	ins.csrCache.Store(nil)
	ins.fpCache.Store(nil)
	ins.expCache.Store(nil)
	ins.digests.Store(nil)
	ins.tied = 0
	ins.bumpWholesale()
	ins.clearFingerprint()
}

// CSR returns the flat compressed-sparse-row form of the instance, building
// it on first use and caching it. The returned CSR is shared: every solve of
// this instance indexes the same three flat arrays, so repeat solves pay no
// re-marshalling. It must not be mutated (see the immutability contract).
func (ins *Instance) CSR() *CSR {
	if c := ins.csrCache.Load(); c != nil {
		ins.checkFingerprint()
		return c
	}
	c := BuildCSR(ins)
	// Store before recording: if a mutate+Invalidate lands between the two,
	// the Invalidate clears this cache entry, whereas the reverse order could
	// leave a freshly-stored stale structure behind (see Expanded).
	ins.csrCache.Store(c)
	ins.recordFingerprint()
	return c
}

// Strict reports whether no applicant's list contains a tie.
func (ins *Instance) Strict() bool {
	for a := range ins.Lists {
		r := ins.Ranks[a]
		for i := 1; i < len(r); i++ {
			if r[i] == r[i-1] {
				return false
			}
		}
	}
	return true
}

// LastResort returns the virtual last-resort post id of applicant a.
func (ins *Instance) LastResort(a int) int32 { return int32(ins.NumPosts + a) }

// IsLastResort reports whether post id p is a virtual last resort.
func (ins *Instance) IsLastResort(p int32) bool { return int(p) >= ins.NumPosts }

// TotalPosts is the number of post ids including last resorts.
func (ins *Instance) TotalPosts() int { return ins.NumPosts + ins.NumApplicants }

// LastResortRank is the rank of l(a) on a's augmented list: one worse than
// the worst listed rank.
func (ins *Instance) LastResortRank(a int) int32 {
	r := ins.Ranks[a]
	return r[len(r)-1] + 1
}

// RankOf returns the rank of post p on applicant a's augmented list. Posts
// not on the list (other than l(a)) report ok = false. It scans a's row, so
// a call costs the list's length.
func (ins *Instance) RankOf(a int, p int32) (rank int32, ok bool) {
	if p == ins.LastResort(a) {
		return ins.LastResortRank(a), true
	}
	for i, q := range ins.Lists[a] {
		if q == p {
			return ins.Ranks[a][i], true
		}
	}
	return 0, false
}

// Clone returns a deep copy (without the lazily derived caches).
func (ins *Instance) Clone() *Instance {
	lists := make([][]int32, len(ins.Lists))
	ranks := make([][]int32, len(ins.Ranks))
	for a := range ins.Lists {
		lists[a] = append([]int32(nil), ins.Lists[a]...)
		ranks[a] = append([]int32(nil), ins.Ranks[a]...)
	}
	var caps []int32
	if ins.Capacities != nil {
		caps = append([]int32(nil), ins.Capacities...)
	}
	return &Instance{
		NumApplicants: ins.NumApplicants,
		NumPosts:      ins.NumPosts,
		Lists:         lists,
		Ranks:         ranks,
		Capacities:    caps,
	}
}
