package onesided

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/exec"
)

// Capacitated house allocation (CHA): posts may hold more than one
// applicant. The capacitated problem reduces to the paper's unit-capacity
// model by post cloning — post p of capacity c(p) becomes c(p) unit posts,
// tied at p's rank on every list that contains p — and a matching of the
// cloned instance folds back to a capacitated Assignment. Votes only depend
// on the rank of the post an applicant holds, and clones are tied, so the
// correspondence preserves the popularity relation in both directions: M is
// popular in the capacitated instance iff its lift is popular in the cloned
// one.

// NewCapacitated builds a strictly-ordered capacitated instance;
// len(capacities) determines the number of posts.
func NewCapacitated(capacities []int32, lists [][]int32) (*Instance, error) {
	ins, err := NewStrict(len(capacities), lists)
	if err != nil {
		return nil, err
	}
	if err := ins.SetCapacities(capacities); err != nil {
		return nil, err
	}
	return ins, nil
}

// NewCapacitatedWithTies builds a capacitated instance with explicit ranks
// (ties allowed); len(capacities) determines the number of posts.
func NewCapacitatedWithTies(capacities []int32, lists [][]int32, ranks [][]int32) (*Instance, error) {
	ins, err := NewWithTies(len(capacities), lists, ranks)
	if err != nil {
		return nil, err
	}
	if err := ins.SetCapacities(capacities); err != nil {
		return nil, err
	}
	return ins, nil
}

// Expand performs the clone reduction: it returns an equivalent
// unit-capacity instance in which post p is replaced by Capacity(p) clone
// posts (contiguous ids starting at firstClone[p], all tied at p's original
// rank), plus the clone→original map cloneOf. Unit-capacity instances expand
// to a plain copy with identity maps.
//
// The expanded lists are built flat, CSR style: one exact-size pass counts
// the cloned row lengths, a second fills two contiguous arrays, and the unit
// instance's rows are subslices of them — no per-applicant growth, so
// expanding a large CHA instance is two linear passes over the original CSR.
func (ins *Instance) Expand() (unit *Instance, cloneOf, firstClone []int32, err error) {
	total := ins.TotalCapacity()
	if total+ins.NumApplicants > math.MaxInt32 {
		return nil, nil, nil, fmt.Errorf("onesided: expanded instance needs %d post ids, exceeding int32", total+ins.NumApplicants)
	}
	c := ins.CSR()
	firstClone = make([]int32, ins.NumPosts+1)
	for p := 0; p < ins.NumPosts; p++ {
		firstClone[p+1] = firstClone[p] + ins.Capacity(int32(p))
	}
	cloneOf = make([]int32, total)
	for p := 0; p < ins.NumPosts; p++ {
		for q := firstClone[p]; q < firstClone[p+1]; q++ {
			cloneOf[q] = int32(p)
		}
	}
	// Pass 1: exact expanded row lengths.
	edges := 0
	off := make([]int, ins.NumApplicants+1)
	for a := 0; a < ins.NumApplicants; a++ {
		off[a] = edges
		for _, p := range c.List(a) {
			edges += int(firstClone[p+1] - firstClone[p])
		}
	}
	off[ins.NumApplicants] = edges
	// Pass 2: fill the flat arrays and slice the rows out of them.
	flatPosts := make([]int32, edges)
	flatRanks := make([]int32, edges)
	lists := make([][]int32, ins.NumApplicants)
	ranks := make([][]int32, ins.NumApplicants)
	for a := 0; a < ins.NumApplicants; a++ {
		at := off[a]
		row, rr := c.List(a), c.Ranks(a)
		for i, p := range row {
			for q := firstClone[p]; q < firstClone[p+1]; q++ {
				flatPosts[at] = q
				flatRanks[at] = rr[i]
				at++
			}
		}
		lists[a] = flatPosts[off[a]:at]
		ranks[a] = flatRanks[off[a]:at]
	}
	unit, err = NewWithTies(total, lists, ranks)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("onesided: clone reduction produced an invalid instance: %w", err)
	}
	return unit, cloneOf, firstClone, nil
}

// Expansion is a cached clone reduction: the expanded unit instance plus the
// id maps relating it to the original. Like the CSR form it is derived once
// per Instance and shared by every subsequent capacitated solve, so repeat
// solves of a registered instance skip the reduction entirely. It is
// immutable; see the Instance immutability contract.
type Expansion struct {
	// Unit is the equivalent unit-capacity instance (its CSR form is
	// prebuilt, so concurrent solves share the flat arrays).
	Unit *Instance
	// CloneOf maps each clone post id of Unit to its original post.
	CloneOf []int32
	// FirstClone[p] is the first clone id of original post p (FirstClone has
	// NumPosts+1 entries, so p's clones are FirstClone[p]:FirstClone[p+1]).
	FirstClone []int32
}

// Expanded returns the clone reduction of the instance, building and caching
// it on first use (see Expand for the construction). Concurrent builders
// race benignly — both derive identical expansions and either may win.
func (ins *Instance) Expanded() (*Expansion, error) {
	if e := ins.expCache.Load(); e != nil {
		ins.checkFingerprint()
		return e, nil
	}
	unit, cloneOf, firstClone, err := ins.Expand()
	if err != nil {
		return nil, err
	}
	unit.CSR() // prebuild so every solve shares the flat form
	e := &Expansion{Unit: unit, CloneOf: cloneOf, FirstClone: firstClone}
	// Store the expansion BEFORE re-recording the fingerprint: in the
	// reverse order a mutate+Invalidate interleaved between the two calls
	// would clear the cache slot and the debug side table first — and then
	// the Store would plant an expansion of the pre-mutation lists that every
	// later Expanded call serves as current. Storing first closes the window:
	// anything stored here is dropped by that Invalidate.
	ins.expCache.Store(e)
	if expandedRaceHook != nil {
		expandedRaceHook()
	}
	ins.recordFingerprint()
	return e, nil
}

// expandedRaceHook, when non-nil, runs between the expansion store and the
// fingerprint re-record in Expanded. Tests use it to interleave a mutation
// exactly inside the former race window.
var expandedRaceHook func()

// Assignment is a many-to-one matching of a capacitated instance: PostOf[a]
// is the original post held by applicant a (possibly a's last resort
// NumPosts+a, or -1 when unmatched) — the same per-applicant view as
// Matching.PostOf — and AssignedTo gives the inverse per-post lists.
type Assignment struct {
	PostOf   []int32
	assigned [][]int32
}

// AssignedTo returns the applicants assigned to real post p, in increasing
// id order. The slice is owned by the Assignment; do not mutate.
func (as *Assignment) AssignedTo(p int32) []int32 { return as.assigned[p] }

// Size is the number of applicants assigned to real posts.
func (as *Assignment) Size(ins *Instance) int {
	n := 0
	for _, p := range as.PostOf {
		if p >= 0 && !ins.IsLastResort(p) {
			n++
		}
	}
	return n
}

// Profile returns the §IV-E matching profile of the assignment (see
// ProfileOf).
func (as *Assignment) Profile(ins *Instance) []int { return ProfileOf(ins, as.PostOf) }

// ApplicantComplete reports whether every applicant holds a post (last
// resorts count).
func (as *Assignment) ApplicantComplete() bool {
	for _, p := range as.PostOf {
		if p < 0 {
			return false
		}
	}
	return true
}

// Validate checks structural consistency with ins: posts on lists (or own
// last resorts), inverse lists matching PostOf, and no post over capacity.
func (as *Assignment) Validate(ins *Instance) error {
	if len(as.PostOf) != ins.NumApplicants || len(as.assigned) != ins.NumPosts {
		return fmt.Errorf("assignment sized %d/%d for instance %d/%d",
			len(as.PostOf), len(as.assigned), ins.NumApplicants, ins.NumPosts)
	}
	load := make([]int32, ins.NumPosts)
	for a, p := range as.PostOf {
		if p < 0 {
			continue
		}
		if ins.IsLastResort(p) {
			if p != ins.LastResort(a) {
				return fmt.Errorf("applicant %d assigned foreign last resort %d", a, p)
			}
			continue
		}
		if _, ok := ins.RankOf(a, p); !ok {
			return fmt.Errorf("applicant %d assigned post %d not on their list", a, p)
		}
		load[p]++
	}
	for p := int32(0); int(p) < ins.NumPosts; p++ {
		if load[p] > ins.Capacity(p) {
			return fmt.Errorf("post %d holds %d applicants, capacity %d", p, load[p], ins.Capacity(p))
		}
		want := as.assigned[p]
		if int32(len(want)) != load[p] {
			return fmt.Errorf("post %d inverse list has %d entries, want %d", p, len(want), load[p])
		}
		for i, a := range want {
			if a < 0 || int(a) >= ins.NumApplicants || as.PostOf[a] != p {
				return fmt.Errorf("post %d inverse list entry %d is inconsistent", p, i)
			}
			if i > 0 && want[i-1] >= a {
				return fmt.Errorf("post %d inverse list not strictly increasing", p)
			}
		}
	}
	return nil
}

// AssignmentFromPostOf builds an Assignment (with sorted inverse lists) from
// a per-applicant post vector, validating it against ins.
func AssignmentFromPostOf(ins *Instance, postOf []int32) (*Assignment, error) {
	as := &Assignment{
		PostOf:   append([]int32(nil), postOf...),
		assigned: make([][]int32, ins.NumPosts),
	}
	for a, p := range as.PostOf {
		if p >= 0 && !ins.IsLastResort(p) {
			as.assigned[p] = append(as.assigned[p], int32(a))
		}
	}
	for p := range as.assigned {
		sort.Slice(as.assigned[p], func(i, j int) bool { return as.assigned[p][i] < as.assigned[p][j] })
	}
	if err := as.Validate(ins); err != nil {
		return nil, err
	}
	return as, nil
}

// Fold maps a matching of the expanded (cloned) instance back to a
// capacitated Assignment of ins: clone ids collapse to their original post,
// and last resorts of the expanded instance map to the corresponding last
// resorts of ins. cloneOf is the map returned by Expand.
func Fold(ins *Instance, unit *Instance, cloneOf []int32, m *Matching) (*Assignment, error) {
	postOf := make([]int32, ins.NumApplicants)
	for a, q := range m.PostOf {
		switch {
		case q < 0:
			postOf[a] = -1
		case unit.IsLastResort(q):
			postOf[a] = ins.LastResort(a)
		default:
			postOf[a] = cloneOf[q]
		}
	}
	return AssignmentFromPostOf(ins, postOf)
}

// Lift maps an Assignment of ins to a matching of the expanded instance:
// the applicants at post p take distinct clones of p in id order. It is the
// inverse of Fold up to the (vote-irrelevant) choice of clone.
func Lift(ins *Instance, unit *Instance, firstClone []int32, as *Assignment) *Matching {
	m := NewMatching(unit)
	for p := int32(0); int(p) < ins.NumPosts; p++ {
		for i, a := range as.AssignedTo(p) {
			m.Match(a, firstClone[p]+int32(i))
		}
	}
	for a, p := range as.PostOf {
		if p >= 0 && ins.IsLastResort(p) {
			m.Match(int32(a), unit.LastResort(a))
		}
	}
	return m
}

// UnpopularityMarginAssignmentCtx returns the best vote margin any
// applicant-complete capacitated assignment achieves against as (≤ 0 iff as
// is popular), by running the Hungarian margin oracle on the cloned
// instance. Intended for verification on moderate sizes; the dominant
// Hungarian sweep polls cx for cancellation.
func UnpopularityMarginAssignmentCtx(cx *exec.Ctx, ins *Instance, as *Assignment) (int, error) {
	unit, _, firstClone, err := ins.Expand()
	if err != nil {
		return 0, err
	}
	return UnpopularityMarginCtx(cx, unit, Lift(ins, unit, firstClone, as)), nil
}
