package onesided

// Brute-force oracles for small instances. These are the ground truth the
// NC algorithms are differentially tested against: they enumerate every
// applicant-complete matching of the augmented instance (each applicant gets
// a post from their list or their last resort) and decide popularity by
// definition, i.e. by pairwise vote comparison against every alternative.

// EnumerateMatchings calls yield for every applicant-complete matching of the
// augmented instance. Enumeration stops early if yield returns false. The
// *Matching passed to yield is reused between calls; clone it to keep it.
//
// The number of matchings is exponential; callers are tests on tiny
// instances.
func EnumerateMatchings(ins *Instance, yield func(*Matching) bool) {
	m := NewMatching(ins)
	var rec func(a int) bool
	rec = func(a int) bool {
		if a == ins.NumApplicants {
			return yield(m)
		}
		for _, p := range ins.Lists[a] {
			if m.ApplicantOf[p] >= 0 {
				continue
			}
			m.PostOf[a] = p
			m.ApplicantOf[p] = int32(a)
			if !rec(a + 1) {
				return false
			}
			m.ApplicantOf[p] = -1
			m.PostOf[a] = -1
		}
		lr := ins.LastResort(a)
		m.PostOf[a] = lr
		m.ApplicantOf[lr] = int32(a)
		if !rec(a + 1) {
			return false
		}
		m.ApplicantOf[lr] = -1
		m.PostOf[a] = -1
		return true
	}
	rec(0)
}

// IsPopularBrute decides popularity by definition: no applicant-complete
// matching is more popular than m. (Restricting challengers to
// applicant-complete matchings is without loss of generality: filling last
// resorts never decreases any applicant's vote for the challenger.)
func IsPopularBrute(ins *Instance, m *Matching) bool {
	popular := true
	EnumerateMatchings(ins, func(other *Matching) bool {
		if MorePopular(ins, other, m) {
			popular = false
			return false
		}
		return true
	})
	return popular
}

// AllPopularBrute returns every popular applicant-complete matching,
// in enumeration order.
func AllPopularBrute(ins *Instance) []*Matching {
	var all []*Matching
	EnumerateMatchings(ins, func(m *Matching) bool {
		all = append(all, m.Clone())
		return true
	})
	var popular []*Matching
	for _, m := range all {
		ok := true
		for _, other := range all {
			if MorePopular(ins, other, m) {
				ok = false
				break
			}
		}
		if ok {
			popular = append(popular, m)
		}
	}
	return popular
}

// NonePopularBrute verifies a "no popular matching exists" answer by
// definition: it enumerates every applicant-complete matching and confirms
// each one is beaten by some other. O(N²) in the number N of matchings —
// tiny instances only.
func NonePopularBrute(ins *Instance) bool {
	none := true
	EnumerateMatchings(ins, func(cand *Matching) bool {
		beaten := false
		EnumerateMatchings(ins, func(other *Matching) bool {
			if MorePopular(ins, other, cand) {
				beaten = true
				return false
			}
			return true
		})
		if !beaten {
			none = false
			return false
		}
		return true
	})
	return none
}

// NonePopularOracle verifies a "no popular matching exists" answer with the
// exact margin oracle: every applicant-complete matching must have a
// challenger with a positive vote margin. O(N · n³) instead of O(N²) vote
// comparisons, so it reaches somewhat larger instances than
// NonePopularBrute.
func NonePopularOracle(ins *Instance) bool {
	none := true
	EnumerateMatchings(ins, func(m *Matching) bool {
		if UnpopularityMargin(ins, m) <= 0 {
			none = false
			return false
		}
		return true
	})
	return none
}

// MaxPopularSizeBrute returns the size of a largest popular matching, or
// -1 if no popular matching exists.
func MaxPopularSizeBrute(ins *Instance) int {
	best := -1
	for _, m := range AllPopularBrute(ins) {
		if s := m.Size(ins); s > best {
			best = s
		}
	}
	return best
}
