package onesided

import "fmt"

// Matching is an assignment of applicants to posts. PostOf[a] is the post
// matched to applicant a (possibly a last resort), or -1 if unmatched;
// ApplicantOf[p] is the inverse over all TotalPosts() post ids.
//
// The algorithms of the paper work with applicant-complete matchings
// (Definition 2): every applicant matched, using last resorts as fallback.
type Matching struct {
	PostOf      []int32
	ApplicantOf []int32
}

// NewMatching returns an empty matching for ins.
func NewMatching(ins *Instance) *Matching {
	m := &Matching{
		PostOf:      make([]int32, ins.NumApplicants),
		ApplicantOf: make([]int32, ins.TotalPosts()),
	}
	for i := range m.PostOf {
		m.PostOf[i] = -1
	}
	for i := range m.ApplicantOf {
		m.ApplicantOf[i] = -1
	}
	return m
}

// Reset re-empties the matching for ins, reusing the existing slices when
// their capacity suffices: the allocation-free path for solvers that recycle
// a result matching across repeat solves of same-shaped instances.
func (m *Matching) Reset(ins *Instance) {
	n1, total := ins.NumApplicants, ins.TotalPosts()
	if cap(m.PostOf) < n1 {
		m.PostOf = make([]int32, n1)
	}
	if cap(m.ApplicantOf) < total {
		m.ApplicantOf = make([]int32, total)
	}
	m.PostOf = m.PostOf[:n1]
	m.ApplicantOf = m.ApplicantOf[:total]
	for i := range m.PostOf {
		m.PostOf[i] = -1
	}
	for i := range m.ApplicantOf {
		m.ApplicantOf[i] = -1
	}
}

// Match pairs applicant a with post p, detaching any previous partners.
func (m *Matching) Match(a int32, p int32) {
	if old := m.PostOf[a]; old >= 0 {
		m.ApplicantOf[old] = -1
	}
	if old := m.ApplicantOf[p]; old >= 0 {
		m.PostOf[old] = -1
	}
	m.PostOf[a] = p
	m.ApplicantOf[p] = a
}

// Clone returns a deep copy.
func (m *Matching) Clone() *Matching {
	return &Matching{
		PostOf:      append([]int32(nil), m.PostOf...),
		ApplicantOf: append([]int32(nil), m.ApplicantOf...),
	}
}

// Key returns a canonical string key for a matching (for set comparisons in
// tests).
func (m *Matching) Key() string {
	buf := make([]byte, 0, 4*len(m.PostOf))
	for _, p := range m.PostOf {
		buf = append(buf, byte(p>>8), byte(p), ',')
	}
	return string(buf)
}

// Equal reports whether m and o assign every applicant and post
// identically — the bit-identical-result check of the determinism
// contracts (same matching regardless of worker count).
func (m *Matching) Equal(o *Matching) bool {
	if o == nil || len(m.PostOf) != len(o.PostOf) || len(m.ApplicantOf) != len(o.ApplicantOf) {
		return false
	}
	for i, p := range m.PostOf {
		if o.PostOf[i] != p {
			return false
		}
	}
	for i, a := range m.ApplicantOf {
		if o.ApplicantOf[i] != a {
			return false
		}
	}
	return true
}

// ApplicantComplete reports whether every applicant is matched (Definition 2;
// last resorts count as matched).
func (m *Matching) ApplicantComplete() bool {
	for _, p := range m.PostOf {
		if p < 0 {
			return false
		}
	}
	return true
}

// Size is the number of applicants matched to real (non-last-resort) posts —
// the paper's notion of the size of an applicant-complete matching (§II).
func (m *Matching) Size(ins *Instance) int {
	n := 0
	for _, p := range m.PostOf {
		if p >= 0 && !ins.IsLastResort(p) {
			n++
		}
	}
	return n
}

// Validate checks that the matching is structurally consistent with ins:
// inverse maps agree, and every matched pair is an edge of the augmented
// instance (a post on a's list, or a's own last resort).
func (m *Matching) Validate(ins *Instance) error {
	if len(m.PostOf) != ins.NumApplicants || len(m.ApplicantOf) != ins.TotalPosts() {
		return fmt.Errorf("matching sized %d/%d for instance %d/%d",
			len(m.PostOf), len(m.ApplicantOf), ins.NumApplicants, ins.TotalPosts())
	}
	for a, p := range m.PostOf {
		if p < 0 {
			continue
		}
		if m.ApplicantOf[p] != int32(a) {
			return fmt.Errorf("PostOf[%d]=%d but ApplicantOf[%d]=%d", a, p, p, m.ApplicantOf[p])
		}
		if _, ok := ins.RankOf(a, p); !ok {
			return fmt.Errorf("applicant %d matched to post %d not on their list", a, p)
		}
	}
	for p, a := range m.ApplicantOf {
		if a >= 0 && m.PostOf[a] != int32(p) {
			return fmt.Errorf("ApplicantOf[%d]=%d but PostOf[%d]=%d", p, a, a, m.PostOf[a])
		}
	}
	return nil
}

// FillLastResorts matches every unmatched applicant to their last resort,
// making the matching applicant-complete without changing any vote (an
// unmatched applicant and one matched to l(a) compare identically under the
// popularity relation).
func (m *Matching) FillLastResorts(ins *Instance) {
	for a, p := range m.PostOf {
		if p < 0 {
			m.Match(int32(a), ins.LastResort(a))
		}
	}
}

// StripLastResorts unmatches every applicant held by a last resort, yielding
// the matching over real posts only.
func (m *Matching) StripLastResorts(ins *Instance) {
	for a, p := range m.PostOf {
		if p >= 0 && ins.IsLastResort(p) {
			m.ApplicantOf[p] = -1
			m.PostOf[a] = -1
		}
	}
}

// rankOrWorst returns the rank of p for a, with unmatched (-1) treated as
// strictly worse than every post including the last resort.
func rankOrWorst(ins *Instance, a int, p int32) int32 {
	if p < 0 {
		return ins.LastResortRank(a) + 1
	}
	r, ok := ins.RankOf(a, p)
	if !ok {
		panic(fmt.Sprintf("onesided: applicant %d assigned post %d not on their list", a, p))
	}
	return r
}

// Prefers reports whether applicant a prefers post p to post q (either may
// be -1 = unmatched, which loses to everything).
func Prefers(ins *Instance, a int, p, q int32) bool {
	return rankOrWorst(ins, a, p) < rankOrWorst(ins, a, q)
}

// CompareVotesPostOf returns the vote tallies between two per-applicant
// post vectors: how many applicants strictly prefer their post in p1 over
// their post in p2, and vice versa (§II-A). It is the vote comparison shared
// by unit matchings and capacitated assignments — popularity only depends on
// the rank of the post each applicant holds.
func CompareVotesPostOf(ins *Instance, p1, p2 []int32) (pref1, pref2 int) {
	for a := 0; a < ins.NumApplicants; a++ {
		r1 := rankOrWorst(ins, a, p1[a])
		r2 := rankOrWorst(ins, a, p2[a])
		switch {
		case r1 < r2:
			pref1++
		case r2 < r1:
			pref2++
		}
	}
	return pref1, pref2
}

// CompareVotes returns |P(M1,M2)| and |P(M2,M1)|: how many applicants
// strictly prefer M1 to M2 and vice versa (§II-A).
func CompareVotes(ins *Instance, m1, m2 *Matching) (prefM1, prefM2 int) {
	return CompareVotesPostOf(ins, m1.PostOf, m2.PostOf)
}

// MorePopular reports whether m1 ≻ m2: strictly more applicants prefer m1.
func MorePopular(ins *Instance, m1, m2 *Matching) bool {
	a, b := CompareVotes(ins, m1, m2)
	return a > b
}

// ProfileOf returns the paper's §IV-E profile ρ(M) of a per-applicant post
// vector: entry i (0-based; rank i+1) counts applicants matched to their
// (i+1)-th ranked post, where a last-resort (or unmatched) assignment counts
// at rank NumPosts+1 regardless of list length. The returned slice has
// NumPosts+1 entries.
func ProfileOf(ins *Instance, postOf []int32) []int {
	prof := make([]int, ins.NumPosts+1)
	for a := 0; a < ins.NumApplicants; a++ {
		p := postOf[a]
		if p < 0 || ins.IsLastResort(p) {
			prof[ins.NumPosts]++
			continue
		}
		r, _ := ins.RankOf(a, p)
		prof[r-1]++
	}
	return prof
}

// Profile returns the §IV-E profile of a matching; see ProfileOf.
func Profile(ins *Instance, m *Matching) []int {
	return ProfileOf(ins, m.PostOf)
}

// CompareRankMaximal orders profiles by the ≻_R relation of §IV-E:
// lexicographic from the first coordinate, larger is better. It returns
// +1 if p1 ≻_R p2, -1 if p2 ≻_R p1, 0 if equal.
func CompareRankMaximal(p1, p2 []int) int {
	for i := range p1 {
		switch {
		case p1[i] > p2[i]:
			return 1
		case p1[i] < p2[i]:
			return -1
		}
	}
	return 0
}

// CompareFair orders profiles by the ≺_F relation of §IV-E: lexicographic
// from the last coordinate, smaller is better. It returns +1 if p1 is fairer
// (p1 ≺_F p2), -1 if p2 is fairer, 0 if equal.
func CompareFair(p1, p2 []int) int {
	for i := len(p1) - 1; i >= 0; i-- {
		switch {
		case p1[i] < p2[i]:
			return 1
		case p1[i] > p2[i]:
			return -1
		}
	}
	return 0
}
