package onesided

import "fmt"

// CSR is the flat, arena-friendly form of an Instance: the preference lists
// of all applicants concatenated into three contiguous arrays in compressed
// sparse row layout. It is the canonical in-memory representation the solver
// layers index into — no per-applicant slice headers, no pointer chasing —
// while Instance remains the friendly construction and IO surface.
//
// Applicant a's list occupies positions Off[a] to Off[a+1] (exclusive):
// Post[i] is the post id of entry i and Rank[i] its 1-based rank
// (nondecreasing within a row; equal ranks are ties). Off has
// NumApplicants+1 entries with Off[0] == 0, so row views are two loads and a
// slice. Capacities is shared with (not copied from) the source Instance and
// is nil for unit-capacity instances.
//
// A CSR is immutable after construction: it is cached on the Instance
// (Instance.CSR) and shared by concurrent solves. See the Instance
// immutability contract.
type CSR struct {
	NumApplicants int
	NumPosts      int
	// Off, Post, Rank are the compressed rows; see the type comment.
	Off  []int32
	Post []int32
	Rank []int32
	// Capacities aliases the source instance's per-post capacity vector
	// (nil = every post has capacity 1).
	Capacities []int32

	strict bool
}

// BuildCSR flattens a structurally valid Instance into CSR form. The flat
// arrays are freshly allocated; Capacities is aliased. Prefer Instance.CSR,
// which builds once and caches.
func BuildCSR(ins *Instance) *CSR {
	n1 := ins.NumApplicants
	edges := 0
	for _, l := range ins.Lists {
		edges += len(l)
	}
	c := &CSR{
		NumApplicants: n1,
		NumPosts:      ins.NumPosts,
		Off:           make([]int32, n1+1),
		Post:          make([]int32, edges),
		Rank:          make([]int32, edges),
		Capacities:    ins.Capacities,
		strict:        true,
	}
	at := int32(0)
	for a := 0; a < n1; a++ {
		c.Off[a] = at
		l, r := ins.Lists[a], ins.Ranks[a]
		copy(c.Post[at:], l)
		copy(c.Rank[at:], r)
		for i := 1; i < len(r); i++ {
			if r[i] == r[i-1] {
				c.strict = false
			}
		}
		at += int32(len(l))
	}
	c.Off[n1] = at
	return c
}

// Instance converts back to the slices-of-slices surface form, losslessly:
// every row of the returned Instance is a subslice of the CSR's flat arrays
// (no copying), so the result must be treated as immutable like the CSR
// itself. Capacities is aliased.
func (c *CSR) Instance() *Instance {
	lists := make([][]int32, c.NumApplicants)
	ranks := make([][]int32, c.NumApplicants)
	for a := range lists {
		lists[a] = c.Post[c.Off[a]:c.Off[a+1]]
		ranks[a] = c.Rank[c.Off[a]:c.Off[a+1]]
	}
	return &Instance{
		NumApplicants: c.NumApplicants,
		NumPosts:      c.NumPosts,
		Lists:         lists,
		Ranks:         ranks,
		Capacities:    c.Capacities,
	}
}

// NumEdges is the total preference-list length over all applicants.
func (c *CSR) NumEdges() int { return len(c.Post) }

// Degree is the length of applicant a's list.
func (c *CSR) Degree(a int) int { return int(c.Off[a+1] - c.Off[a]) }

// List returns applicant a's posts, most preferred first (a view into the
// flat array; do not mutate).
func (c *CSR) List(a int) []int32 { return c.Post[c.Off[a]:c.Off[a+1]] }

// Ranks returns the ranks aligned with List(a) (a view; do not mutate).
func (c *CSR) Ranks(a int) []int32 { return c.Rank[c.Off[a]:c.Off[a+1]] }

// First returns applicant a's most-preferred post (rank 1; on strict
// instances the unique first choice f(a)).
func (c *CSR) First(a int) int32 { return c.Post[c.Off[a]] }

// Strict reports whether no row contains a tie (precomputed at build).
func (c *CSR) Strict() bool { return c.strict }

// LastResort returns the virtual last-resort post id of applicant a.
func (c *CSR) LastResort(a int) int32 { return int32(c.NumPosts + a) }

// IsLastResort reports whether post id p is a virtual last resort.
func (c *CSR) IsLastResort(p int32) bool { return int(p) >= c.NumPosts }

// TotalPosts is the number of post ids including last resorts.
func (c *CSR) TotalPosts() int { return c.NumPosts + c.NumApplicants }

// LastResortRank is the rank of l(a): one worse than a's worst listed rank.
func (c *CSR) LastResortRank(a int) int32 { return c.Rank[c.Off[a+1]-1] + 1 }

// Capacity returns the capacity of real post p (1 when Capacities is nil).
func (c *CSR) Capacity(p int32) int32 {
	if c.Capacities == nil {
		return 1
	}
	return c.Capacities[p]
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
	return dupSet{m: make(map[int32]int32, 16)}
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

// Validate checks the CSR structural invariants: monotone offsets covering
// the flat arrays, non-empty rows, in-range distinct posts per row, 1-based
// contiguous nondecreasing ranks, and positive capacities. It mirrors
// Instance.Validate so a CSR accepted here converts to a Validate-clean
// Instance and vice versa.
func (c *CSR) Validate() error {
	if c.NumPosts < 0 {
		return fmt.Errorf("onesided: negative post count %d", c.NumPosts)
	}
	if len(c.Off) != c.NumApplicants+1 {
		return fmt.Errorf("onesided: CSR with %d applicants has %d offsets", c.NumApplicants, len(c.Off))
	}
	if c.NumApplicants > 0 && c.Off[0] != 0 {
		return fmt.Errorf("onesided: CSR offsets start at %d, want 0", c.Off[0])
	}
	if len(c.Post) != len(c.Rank) {
		return fmt.Errorf("onesided: CSR has %d posts but %d ranks", len(c.Post), len(c.Rank))
	}
	if n := len(c.Off); n > 0 && int(c.Off[n-1]) != len(c.Post) {
		return fmt.Errorf("onesided: CSR offsets end at %d but flat arrays have %d entries", c.Off[n-1], len(c.Post))
	}
	if c.Capacities != nil {
		if len(c.Capacities) != c.NumPosts {
			return fmt.Errorf("onesided: %d posts but %d capacities", c.NumPosts, len(c.Capacities))
		}
		for p, cp := range c.Capacities {
			if cp < 1 {
				return fmt.Errorf("onesided: post %d has capacity %d, want >= 1", p, cp)
			}
		}
	}
	seen := newDupSet(c.NumPosts, len(c.Post))
	for a := 0; a < c.NumApplicants; a++ {
		lo, hi := c.Off[a], c.Off[a+1]
		if hi < lo {
			return fmt.Errorf("onesided: CSR offsets of applicant %d decrease", a)
		}
		if lo == hi {
			return fmt.Errorf("onesided: applicant %d has an empty preference list", a)
		}
		stamp := int32(a) + 1
		for i := lo; i < hi; i++ {
			p := c.Post[i]
			if p < 0 || int(p) >= c.NumPosts {
				return fmt.Errorf("onesided: applicant %d lists out-of-range post %d", a, p)
			}
			if seen.mark(p, stamp) {
				return fmt.Errorf("onesided: applicant %d lists post %d twice", a, p)
			}
			switch {
			case i == lo && c.Rank[i] != 1:
				return fmt.Errorf("onesided: applicant %d first rank is %d, want 1", a, c.Rank[i])
			case i > lo && (c.Rank[i] < c.Rank[i-1] || c.Rank[i] > c.Rank[i-1]+1):
				return fmt.Errorf("onesided: applicant %d ranks not contiguous at position %d", a, i-lo)
			}
		}
	}
	return nil
}
