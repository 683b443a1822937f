package onesided

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

// List returns applicant a's posts, most preferred first (a view into the
// flat array; do not mutate).
func (c *CSR) List(a int) []int32 { return c.Post[c.Off[a]:c.Off[a+1]] }

// Ranks returns the ranks aligned with List(a) (a view; do not mutate).
func (c *CSR) Ranks(a int) []int32 { return c.Rank[c.Off[a]:c.Off[a+1]] }

// Strict reports whether no row contains a tie (precomputed at build).
func (c *CSR) Strict() bool { return c.strict }

// TotalPosts is the number of post ids including last resorts.
func (c *CSR) TotalPosts() int { return c.NumPosts + c.NumApplicants }
