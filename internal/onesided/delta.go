package onesided

import "fmt"

// Delta mutations. The methods in this file — SetPreferences, AddApplicant,
// RemoveApplicant, SetCapacity — are the sanctioned way to change an
// Instance that has already been solved or queried: instead of mutating
// Lists/Ranks by hand and calling Invalidate (which drops every derived
// cache wholesale), they patch the cached CSR form, rank maps and row
// digests in place, keep CSR.Strict() exact via a tied-row counter, bump a
// monotonic mutation epoch, and journal the edit so a warm-started solver
// (core.Engine.SolveDelta) can ask which rows changed since the matching it
// holds was computed (DirtySince).
//
// # Concurrency
//
// Mutations require exclusive access: no solve, accessor or other mutation
// of the instance may run concurrently with one. The serve session layer
// guarantees this with a per-session lock; library callers own the
// serialization themselves. Between mutations the instance is as shareable
// as ever.
//
// # Epochs and the journal
//
// Epoch() starts at 0 and increments on every mutation (Invalidate and
// SetCapacities count as wholesale mutations). The journal records the last
// maxMutLog single-row edits; DirtySince(e) replays the window (e, now] as a
// dirty-row list, or reports ok=false when the window is gone — older than
// the capped journal, or interrupted by a wholesale Invalidate — in which
// case the caller re-solves from scratch. Mutations that change the
// applicant set or a capacity are journaled as shape changes: replayable,
// but not row-locally, so delta solvers fall back to one full solve and warm
// up again from there.

// maxMutLog caps the journal; edits older than the newest maxMutLog fall off
// the front and DirtySince windows reaching past them report ok=false.
const maxMutLog = 4096

// mutLog is the journal: recs[i] is the mutation that produced epoch
// base+i+1 — a dirty applicant row, or -1 for a shape/capacity change.
type mutLog struct {
	base uint64
	recs []int32
}

// Epoch returns the mutation epoch: 0 for a fresh instance, +1 per mutation.
// Two calls returning the same value bracket an unchanged instance (for
// content produced by the mutation API; see DirtySince for the caveats).
func (ins *Instance) Epoch() uint64 { return ins.epoch }

// DirtySince reports the mutations between epoch e and the current epoch.
// ok=false means the window cannot be replayed (e is ahead of the current
// epoch, older than the capped journal, or crossed an Invalidate) and the
// caller must treat the whole instance as dirty. shape=true means the window
// contains an applicant-set or capacity change (rows is nil then). Otherwise
// rows lists the edited applicant rows, possibly with duplicates; the slice
// aliases the journal and is valid only until the next mutation.
func (ins *Instance) DirtySince(e uint64) (rows []int32, shape bool, ok bool) {
	if e == ins.epoch {
		return nil, false, true
	}
	if e > ins.epoch || e < ins.log.base {
		return nil, false, false
	}
	recs := ins.log.recs[e-ins.log.base:]
	for _, r := range recs {
		if r < 0 {
			return nil, true, true
		}
	}
	return recs, false, true
}

// bump journals one mutation record (a row id, or -1 for shape) and advances
// the epoch, dropping the journal's oldest entry beyond maxMutLog.
func (ins *Instance) bump(rec int32) {
	if len(ins.log.recs) >= maxMutLog {
		n := copy(ins.log.recs, ins.log.recs[len(ins.log.recs)-maxMutLog+1:])
		ins.log.recs = ins.log.recs[:n]
		ins.log.base = ins.epoch - uint64(n)
	}
	ins.log.recs = append(ins.log.recs, rec)
	ins.epoch++
}

// bumpWholesale advances the epoch past a mutation the journal cannot
// describe (Invalidate after hand edits): the journal restarts empty, so
// every DirtySince window crossing this point reports ok=false.
func (ins *Instance) bumpWholesale() {
	ins.epoch++
	ins.log.base = ins.epoch
	ins.log.recs = ins.log.recs[:0]
}

// SetPreferences replaces applicant a's preference row. nil ranks selects
// strict ranks 1..len(posts) (as NewStrict); explicit ranks follow the usual
// contiguous nondecreasing 1-based rules. The inputs are copied. When the
// new row has the same length as the old one the cached CSR is patched in
// place; otherwise the flat arrays are respliced (still no re-derivation on
// the next solve). The edit is journaled row-locally, so a delta solver
// warm-starts from it.
func (ins *Instance) SetPreferences(a int, posts, ranks []int32) error {
	if a < 0 || a >= ins.NumApplicants {
		return fmt.Errorf("onesided: SetPreferences: applicant %d out of range [0,%d)", a, ins.NumApplicants)
	}
	p, r, err := ins.validateRow(a, posts, ranks)
	if err != nil {
		return err
	}
	wasTied := rowTied(ins.Ranks[a])
	ins.Lists[a], ins.Ranks[a] = p, r
	ins.patchRow(a, wasTied, rowTied(r))
	ins.bump(int32(a))
	ins.afterMutation()
	return nil
}

// AddApplicant appends a new applicant with the given preference row (nil
// ranks = strict) and returns its id — NumApplicants before the call.
// Existing applicants keep their ids; existing last-resort post ids are
// unchanged (l(a) = NumPosts + a) and the new applicant's last resort slots
// in above them. The cached CSR gains one appended row. Journaled as a shape
// change: the next delta solve runs full once and warms up from there.
func (ins *Instance) AddApplicant(posts, ranks []int32) (int, error) {
	a := ins.NumApplicants
	p, r, err := ins.validateRow(a, posts, ranks)
	if err != nil {
		return 0, err
	}
	ins.Lists = append(ins.Lists, p)
	ins.Ranks = append(ins.Ranks, r)
	ins.NumApplicants++
	if c := ins.csrCache.Load(); c != nil {
		c.Off = append(c.Off, c.Off[a]+int32(len(p)))
		c.Post = append(c.Post, p...)
		c.Rank = append(c.Rank, r...)
		c.NumApplicants = ins.NumApplicants
		if ins.tied != 0 && rowTied(r) {
			ins.tied++
		}
		c.strict = ins.tiedCount() == 0
	}
	if maps := ins.rankCache.Load(); maps != nil {
		m := make(map[int32]int32, len(p))
		for i, q := range p {
			m[q] = r[i]
		}
		next := append(*maps, m)
		ins.rankCache.Store(&next)
	}
	if d := ins.digests.Load(); d != nil {
		next := append(*d, newRowHasher().digest(p, r))
		ins.digests.Store(&next)
	}
	ins.bump(-1)
	ins.afterMutation()
	return a, nil
}

// RemoveApplicant deletes applicant a with swap-with-last semantics: the
// applicant that held the highest id (NumApplicants-1) takes over id a, and
// that old id is returned so callers can remap external references (moved ==
// a when a already was the last). Swap-remove keeps ids dense — a tombstone
// would violate the non-empty-list invariant. The cached CSR is respliced in
// place. Journaled as a shape change.
func (ins *Instance) RemoveApplicant(a int) (moved int, err error) {
	if a < 0 || a >= ins.NumApplicants {
		return 0, fmt.Errorf("onesided: RemoveApplicant: applicant %d out of range [0,%d)", a, ins.NumApplicants)
	}
	last := ins.NumApplicants - 1
	ins.Lists[a] = ins.Lists[last]
	ins.Ranks[a] = ins.Ranks[last]
	ins.Lists = ins.Lists[:last]
	ins.Ranks = ins.Ranks[:last]
	ins.NumApplicants = last
	ins.tied = 0 // the removed row may have carried the count; recount lazily
	if c := ins.csrCache.Load(); c != nil {
		ins.rebuildCSR(c)
		c.strict = ins.tiedCount() == 0
	}
	if maps := ins.rankCache.Load(); maps != nil {
		(*maps)[a] = (*maps)[last]
		next := (*maps)[:last]
		ins.rankCache.Store(&next)
	}
	if d := ins.digests.Load(); d != nil {
		(*d)[a] = (*d)[last]
		next := (*d)[:last]
		ins.digests.Store(&next)
	}
	ins.bump(-1)
	ins.afterMutation()
	return last, nil
}

// SetCapacity sets the capacity of real post p. An instance without a
// capacity vector materializes an explicit all-ones vector first — note that
// this changes the content fingerprint (nil and all-ones vectors hash
// differently, as they always have) and routes later solves through the
// capacitated dispatch, whose all-ones path returns identical results.
// Journaled as a shape change.
func (ins *Instance) SetCapacity(p int32, capacity int32) error {
	if p < 0 || int(p) >= ins.NumPosts {
		return fmt.Errorf("onesided: SetCapacity: post %d out of range [0,%d)", p, ins.NumPosts)
	}
	if capacity < 1 {
		return fmt.Errorf("onesided: SetCapacity: post %d capacity %d, want >= 1", p, capacity)
	}
	if ins.Capacities == nil {
		caps := make([]int32, ins.NumPosts)
		for i := range caps {
			caps[i] = 1
		}
		ins.Capacities = caps
	}
	ins.Capacities[p] = capacity
	if c := ins.csrCache.Load(); c != nil {
		c.Capacities = ins.Capacities // re-alias: the vector may be freshly materialized
	}
	ins.bump(-1)
	ins.afterMutation()
	return nil
}

// validateRow checks one preference row against the instance's post range
// (non-empty, in-range, distinct, contiguous 1-based ranks; nil ranks =
// strict 1..len) and returns owned copies.
func (ins *Instance) validateRow(a int, posts, ranks []int32) (p, r []int32, err error) {
	if len(posts) == 0 {
		return nil, nil, fmt.Errorf("onesided: applicant %d would have an empty preference list", a)
	}
	if ranks != nil && len(ranks) != len(posts) {
		return nil, nil, fmt.Errorf("onesided: applicant %d given %d posts but %d ranks", a, len(posts), len(ranks))
	}
	p = append([]int32(nil), posts...)
	if ranks == nil {
		r = make([]int32, len(p))
		for i := range r {
			r[i] = int32(i + 1)
		}
	} else {
		r = append([]int32(nil), ranks...)
	}
	seen := make(map[int32]struct{}, len(p))
	for i, q := range p {
		if q < 0 || int(q) >= ins.NumPosts {
			return nil, nil, fmt.Errorf("onesided: applicant %d lists out-of-range post %d", a, q)
		}
		if _, dup := seen[q]; dup {
			return nil, nil, fmt.Errorf("onesided: applicant %d lists post %d twice", a, q)
		}
		seen[q] = struct{}{}
		switch {
		case i == 0 && r[i] != 1:
			return nil, nil, fmt.Errorf("onesided: applicant %d first rank is %d, want 1", a, r[i])
		case i > 0 && (r[i] < r[i-1] || r[i] > r[i-1]+1):
			return nil, nil, fmt.Errorf("onesided: applicant %d ranks not contiguous at position %d", a, i)
		}
	}
	return p, r, nil
}

// patchRow refreshes every derived cache touched by replacing row a:
// CSR (in place when the length matches, resplice otherwise), rank map,
// row digest, and the strictness flag via the tied-row counter.
func (ins *Instance) patchRow(a int, wasTied, isTied bool) {
	if c := ins.csrCache.Load(); c != nil {
		lo, hi := c.Off[a], c.Off[a+1]
		if int(hi-lo) == len(ins.Lists[a]) {
			copy(c.Post[lo:hi], ins.Lists[a])
			copy(c.Rank[lo:hi], ins.Ranks[a])
		} else {
			ins.rebuildCSR(c)
		}
		if ins.tied != 0 {
			if isTied && !wasTied {
				ins.tied++
			} else if !isTied && wasTied {
				ins.tied--
			}
		}
		c.strict = ins.tiedCount() == 0
	}
	if maps := ins.rankCache.Load(); maps != nil {
		m := make(map[int32]int32, len(ins.Lists[a]))
		for i, q := range ins.Lists[a] {
			m[q] = ins.Ranks[a][i]
		}
		(*maps)[a] = m
	}
	if d := ins.digests.Load(); d != nil {
		(*d)[a] = newRowHasher().digest(ins.Lists[a], ins.Ranks[a])
	}
}

// rebuildCSR resplices the flat arrays of c from the current Lists/Ranks,
// reusing the existing backing arrays when capacity suffices. Instance row
// slices never alias the CSR's flat arrays (BuildCSR allocates fresh arrays
// and the mutation API stores copies), so the copies below cannot overlap
// their destination.
func (ins *Instance) rebuildCSR(c *CSR) {
	n1 := ins.NumApplicants
	edges := 0
	for _, l := range ins.Lists {
		edges += len(l)
	}
	if cap(c.Off) < n1+1 {
		c.Off = make([]int32, n1+1)
	}
	c.Off = c.Off[:n1+1]
	post, rank := c.Post, c.Rank
	if cap(post) < edges {
		post = make([]int32, edges)
	}
	if cap(rank) < edges {
		rank = make([]int32, edges)
	}
	post, rank = post[:edges], rank[:edges]
	at := int32(0)
	for a := 0; a < n1; a++ {
		c.Off[a] = at
		copy(post[at:], ins.Lists[a])
		copy(rank[at:], ins.Ranks[a])
		at += int32(len(ins.Lists[a]))
	}
	c.Off[n1] = at
	c.Post, c.Rank = post, rank
	c.NumApplicants = n1
	c.Capacities = ins.Capacities
}

// tiedCount returns the number of rows containing a tie, counting lazily on
// first use after construction (or after a recount-forcing mutation) and
// then maintained incrementally by the mutation API.
func (ins *Instance) tiedCount() int {
	if ins.tied == 0 {
		n := 0
		for a := range ins.Ranks {
			if rowTied(ins.Ranks[a]) {
				n++
			}
		}
		ins.tied = n + 1
	}
	return ins.tied - 1
}

// rowTied reports whether a rank row contains a tie.
func rowTied(r []int32) bool {
	for i := 1; i < len(r); i++ {
		if r[i] == r[i-1] {
			return true
		}
	}
	return false
}

// afterMutation drops the caches a row patch cannot repair in place (the
// fingerprint string — recomputed from the maintained row digests on demand
// — and the clone expansion) and, under the debug tag, re-records the
// content fingerprints so the staleness checker accepts the new content.
func (ins *Instance) afterMutation() {
	ins.fpCache.Store(nil)
	ins.expCache.Store(nil)
	ins.recordFingerprint()
}
