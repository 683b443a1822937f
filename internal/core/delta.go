package core

import (
	"slices"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// Delta solves: warm-starting Algorithm 1 from the previous matching.
//
// The strict kernel's output is a pure function of the reduced graph G′ —
// the (f(a), s(a)) arrays — and G′ decomposes into connected components
// (over posts, with applicants as f–s edges) that the kernel processes
// independently: peeling, the even-cycle matching and promotion never move
// information across components, and every tie-break (bucket sort order,
// degree-1 activation, cycle leader election, canonical darts) depends only
// on the RELATIVE order of applicant and post ids. Restricting a solve to a
// union of components under an order-preserving relabeling therefore
// reproduces, bit for bit, the full solve's assignment on those components.
//
// SolveDelta exploits this: it keeps the previous solve's (f, s) arrays,
// an index of G′ (per-post f counts and the applicant edges at each post)
// and the matching in a DeltaState, asks the instance which preference rows
// changed since then (onesided.Instance.DirtySince), updates (f, s) and the
// index for those rows, and re-solves ONLY the components touched by a
// changed applicant's old or new G′ edges — found by a search over the
// index from those edges' posts — splicing the sub-result into the
// retained matching. Everything outside the affected components provably
// keeps its assignment, so a warm solve costs the edit and the components
// it touches, not the instance. When the delta is too large (many changed
// rows, or the touched components cover most of the instance), when the
// journal window is gone, or when the shape changed, it falls back to one
// full solve and re-captures.

// deltaChangedMax and deltaAffectedMax bound the warm path: more changed
// rows than n1/deltaChangedMax, or affected components covering more than
// n1/deltaAffectedMax applicants, and a full re-solve is cheaper than the
// splice bookkeeping.
const (
	deltaChangedMax  = 4
	deltaAffectedMax = 2
)

// DeltaStats reports how the last SolveDelta was served.
type DeltaStats struct {
	// Warm is true when the warm splice path ran (false: full solve,
	// whether by choice or fallback).
	Warm bool
	// CacheHit is true when the instance was unchanged since the captured
	// epoch (or its G′ was), so the retained matching was returned directly.
	CacheHit bool
	// ChangedRows counts applicants whose (f, s) pair changed; Affected
	// counts the applicants of the re-solved components (on a fallback past
	// the affected bound, those found before the search stopped); SubPosts
	// the real posts of the sub-instance.
	ChangedRows, Affected, SubPosts int
}

// DeltaState carries one instance's warm-start state between SolveDelta
// calls: the (f, s) arrays, G′ index and matching of the previous solve,
// the mutation epoch they correspond to, and the scratch the delta path
// reuses. The zero value is ready to use (the first solve is a full
// capture). A state serves exactly one Instance; handing it a different
// instance resets it. Not safe for concurrent use — like the engine, it
// belongs to one session.
type DeltaState struct {
	ins    *onesided.Instance
	valid  bool
	exists bool
	epoch  uint64
	n1, n2 int
	f, s   []int32
	m      onesided.Matching
	peel   PeelStats
	prom   int
	stats  DeltaStats

	// The G′ index, kept in step with f and s. fCount[p] counts the
	// applicants whose first choice is real post p, so p is an f-post iff
	// fCount[p] > 0. G′'s applicant edges are 2a (a's edge to f(a)) and
	// 2a+1 (to s(a)); head[p] is the first edge at post p, over all n2+n1
	// post ids, and next/prev chain the rest of p's edges (-1 ends a list),
	// so moving one edge between posts is O(1).
	fCount           []int32
	head, next, prev []int32

	// Scratch reused across delta solves. rowMark (per applicant) and
	// postMark (per post) are generation stamps: an entry equal to the
	// current pass's generation is set, anything else is clear, so no pass
	// clears them and an abandoned pass leaves nothing stale behind.
	gen      uint32
	rowMark  []uint32
	postMark []uint32
	dirty    []int32 // this pass's deduplicated dirty rows
	oldF     []int32 // f(a) before this pass, parallel to dirty
	queue    []int32 // search queue: the changed edges' posts, then those reached
	subApps  []int32
	subPosts []int32
	postSub  []int32
	subInto  *onesided.Matching
}

// Reset drops the captured state and scratch, releasing the pinned instance.
func (st *DeltaState) Reset() { *st = DeltaState{} }

// Stats reports how the previous SolveDelta call was served.
func (st *DeltaState) Stats() DeltaStats { return st.stats }

// SolveDeltaRequest is SolveRequest with warm-start: st carries the previous
// solve of ins, and eligible requests (ModePopular on a strict, unit-
// capacity instance) re-solve only the components of G′ affected by the
// mutations since st's capture. Ineligible requests delegate to the plain
// engine dispatch untouched. The returned matching is always a copy owned by
// the caller (recycled through req.Into); it never aliases the retained
// state. Outcome.Peel and Outcome.Promotions describe only the re-solved
// region on the warm path (the matching itself is bit-identical to a fresh
// solve's). On error the state invalidates itself and the next call solves
// fully.
func SolveDeltaRequest(ins *onesided.Instance, req Request, st *DeltaState, opt Options) (out Outcome, err error) {
	defer func() {
		if err != nil {
			st.valid = false
		}
	}()
	defer exec.CatchCancel(&err)
	cx := opt.exec()
	return engineFor(cx).solveDelta(cx, ins, req, st)
}

func (e *engine) solveDelta(cx *exec.Ctx, ins *onesided.Instance, req Request, st *DeltaState) (Outcome, error) {
	if req.Mode != ModePopular || ins.Capacities != nil || !ins.CSR().Strict() {
		// No warm route for this request shape; plain dispatch, state untouched.
		return e.solve(cx, ins, req)
	}
	if st.ins != ins {
		st.Reset()
		st.ins = ins
	}
	st.stats = DeltaStats{}
	if !st.valid {
		return e.deltaFull(cx, ins, st, req.Into)
	}
	rows, shape, ok := ins.DirtySince(st.epoch)
	if !ok || shape || st.n1 != ins.NumApplicants || st.n2 != ins.NumPosts {
		return e.deltaFull(cx, ins, st, req.Into)
	}
	if len(rows) == 0 {
		// Unchanged instance: the captured answer (including a captured
		// "no popular matching exists") still stands.
		st.stats.CacheHit = true
		return st.deliver(req.Into), nil
	}
	if !st.exists {
		// Mutations happened but the captured solve had no matching to warm
		// from; re-capture with a full solve.
		return e.deltaFull(cx, ins, st, req.Into)
	}
	return e.deltaWarm(cx, ins, st, rows, req.Into)
}

// deltaFull is the capture path: one full strict solve, with the reduced
// graph's (f, s) arrays and the result matching copied into the state before
// the kernel scratch is released, and the G′ index built over them.
func (e *engine) deltaFull(cx *exec.Ctx, ins *onesided.Instance, st *DeltaState, into *onesided.Matching) (Outcome, error) {
	st.valid = false // stays false if the solve is interrupted mid-capture
	r, err := e.buildReduced(cx, ins)
	if err != nil {
		return Outcome{}, err
	}
	defer r.release(cx)
	st.f = append(st.f[:0], r.F...)
	st.s = append(st.s[:0], r.S...)
	res, err := popularFromReducedInto(r, into, Options{Exec: cx})
	if err != nil {
		return Outcome{}, err
	}
	st.n1, st.n2 = ins.NumApplicants, ins.NumPosts
	st.index()
	st.epoch = ins.Epoch()
	st.exists = res.Exists
	st.peel, st.prom = res.Peel, res.Promotions
	if res.Exists {
		st.m.PostOf = append(st.m.PostOf[:0], res.Matching.PostOf...)
		st.m.ApplicantOf = append(st.m.ApplicantOf[:0], res.Matching.ApplicantOf...)
	}
	st.valid = true
	return Outcome{Matching: res.Matching, Exists: res.Exists, Peel: res.Peel, Promotions: res.Promotions}, nil
}

// index builds the G′ index over the captured (f, s) arrays and sizes the
// stamped scratch: O(n1 + n2), paid once per capture.
func (st *DeltaState) index() {
	n1, n2 := st.n1, st.n2
	st.fCount = grow32(st.fCount, n2)
	clear(st.fCount)
	st.head = grow32(st.head, n2+n1)
	for i := range st.head {
		st.head[i] = -1
	}
	st.next = grow32(st.next, 2*n1)
	st.prev = grow32(st.prev, 2*n1)
	for a := int32(0); a < int32(n1); a++ {
		st.fCount[st.f[a]]++
		st.link(2*a, st.f[a])
		st.link(2*a+1, st.s[a])
	}
	st.gen = 0
	st.rowMark = growU32(st.rowMark, n1)
	clear(st.rowMark)
	st.postMark = growU32(st.postMark, n2+n1)
	clear(st.postMark)
	st.postSub = grow32(st.postSub, n2)
}

// link pushes edge e onto post p's edge list.
func (st *DeltaState) link(e, p int32) {
	h := st.head[p]
	st.next[e], st.prev[e] = h, -1
	if h >= 0 {
		st.prev[h] = e
	}
	st.head[p] = e
}

// move relinks edge e from post from's edge list to post to's.
func (st *DeltaState) move(e, from, to int32) {
	n, p := st.next[e], st.prev[e]
	if p >= 0 {
		st.next[p] = n
	} else {
		st.head[from] = n
	}
	if n >= 0 {
		st.prev[n] = p
	}
	st.link(e, to)
}

// nextGen starts a stamped pass. On the (far-off) wrap of the counter the
// stamps are cleared once, so a stale stamp can never equal a live one.
func (st *DeltaState) nextGen() uint32 {
	st.gen++
	if st.gen == 0 {
		clear(st.rowMark)
		clear(st.postMark)
		st.gen = 1
	}
	return st.gen
}

// deltaWarm re-solves only the components of G′ affected by the dirty rows.
// Trace attribution: the (f, s) update, component search, sub-instance
// construction and the final splice all land on PhaseSplice; the embedded
// sub-solve reports its own validate/build-reduced/peel/promote spans.
func (e *engine) deltaWarm(cx *exec.Ctx, ins *onesided.Instance, st *DeltaState, rows []int32, into *onesided.Matching) (Outcome, error) {
	cx.Phase(par.PhaseSplice)
	c := ins.CSR()
	n1, n2 := st.n1, st.n2

	// Update f, the f counts and the f-edges for the dirty rows, deduplicated
	// (the journal may name a row twice), and note whether any post's f count
	// crossed between 0 and 1: only then can a post's f-membership flip.
	gDirty := st.nextGen()
	st.dirty, st.oldF = st.dirty[:0], st.oldF[:0]
	flipped := false
	for _, a := range rows {
		if st.rowMark[a] == gDirty {
			continue
		}
		st.rowMark[a] = gDirty
		of, nf := st.f[a], c.Post[c.Off[a]]
		st.dirty = append(st.dirty, a)
		st.oldF = append(st.oldF, of)
		if nf == of {
			continue
		}
		st.fCount[of]--
		st.fCount[nf]++
		flipped = flipped || st.fCount[of] == 0 || st.fCount[nf] == 1
		st.f[a] = nf
		st.move(2*a, of, nf)
	}

	// Re-derive s. While no f count crosses 0↔1, every post keeps its
	// f-membership and s(b) depends only on b's own row, so only the dirty
	// rows can move. A post entering or leaving the f-posts shifts s(b) for
	// every row whose scan reaches it, wherever the row is; then every row
	// is rescanned once — the one whole-instance pass left, paid only by
	// first-choice edits that create or empty an f-post.
	st.queue = st.queue[:0]
	for i, a := range st.dirty {
		st.rescan(c, a, st.oldF[i])
	}
	if flipped {
		for a := int32(0); a < int32(n1); a++ {
			if st.rowMark[a] != gDirty {
				st.rescan(c, a, st.f[a])
			}
		}
	}
	if st.stats.ChangedRows == 0 {
		// The edits didn't move G′ (e.g. reordering below s(a)): the matching
		// is exactly the retained one. Advance the epoch so later DirtySince
		// windows stay small.
		st.epoch = ins.Epoch()
		st.stats.CacheHit = true
		return st.deliver(into), nil
	}
	if st.stats.ChangedRows > n1/deltaChangedMax+1 {
		return e.deltaFull(cx, ins, st, into)
	}

	// Affected components: those of the NEW G′ holding a changed applicant's
	// new edge, or a post its old edges touched (losing an edge re-shapes a
	// component's peeling just as surely as gaining one). A breadth-first
	// search over the index from those posts collects their applicants and
	// the real posts that carry an edge, giving up once it passes the
	// affected bound.
	gSeen := st.nextGen()
	limit := n1/deltaAffectedMax + 1
	st.subApps, st.subPosts = st.subApps[:0], st.subPosts[:0]
	for i := 0; i < len(st.queue); i++ {
		p := st.queue[i]
		if st.postMark[p] == gSeen {
			continue
		}
		st.postMark[p] = gSeen
		if int(p) < n2 && st.head[p] >= 0 {
			st.subPosts = append(st.subPosts, p)
		}
		for ed := st.head[p]; ed >= 0; ed = st.next[ed] {
			a := ed >> 1
			if st.rowMark[a] == gSeen {
				continue
			}
			st.rowMark[a] = gSeen
			st.subApps = append(st.subApps, a)
			q := st.f[a]
			if ed&1 == 0 {
				q = st.s[a]
			}
			st.queue = append(st.queue, q)
		}
		if len(st.subApps) > limit {
			st.stats.Affected = len(st.subApps)
			return e.deltaFull(cx, ins, st, into)
		}
	}
	st.stats.Affected = len(st.subApps)

	// Build the sub-instance over the affected components under an
	// order-preserving relabeling: applicants in ascending global id order,
	// real posts in ascending global id order, last resorts implicit (the
	// relabeling preserves their order too, since sub last resorts follow
	// sub applicant order). Each row is [f′(a)] or [f′(a), s′(a)] — s(a) is
	// never an f-post globally, hence not one in the sub-instance, so the
	// sub-solve re-derives exactly these (f, s) pairs. postSub is written for
	// every post of subPosts before any is read, so it needs no clearing.
	slices.Sort(st.subApps)
	slices.Sort(st.subPosts)
	for i, p := range st.subPosts {
		st.postSub[p] = int32(i)
	}
	st.stats.SubPosts = len(st.subPosts)
	kPosts := len(st.subPosts)
	lists := make([][]int32, len(st.subApps))
	rowBuf := make([]int32, 0, 2*len(st.subApps))
	for i, a := range st.subApps {
		f, s := st.f[a], st.s[a]
		row := append(rowBuf, st.postSub[f])
		if int(s) < n2 {
			row = append(row, st.postSub[s])
		}
		rowBuf = row[len(row):]
		lists[i] = row
	}
	subIns, err := onesided.NewStrict(kPosts, lists)
	if err != nil {
		return Outcome{}, err
	}
	if st.subInto == nil {
		st.subInto = &onesided.Matching{}
	}
	subOut, err := e.popularStrict(cx, subIns, st.subInto)
	if err != nil {
		return Outcome{}, err
	}
	cx.Phase(par.PhaseSplice)
	st.stats.Warm = true
	st.epoch = ins.Epoch()
	if !subOut.Exists {
		// Some affected component fails Hall's condition, so the full
		// instance has no popular matching either (unaffected components
		// passed at capture time and are untouched). The retained matching is
		// now stale; the next solve after further mutations re-captures.
		st.exists = false
		st.peel, st.prom = subOut.Peel, 0
		return Outcome{Exists: false, Peel: subOut.Peel}, nil
	}

	// Splice: clear the affected applicants' old assignments, then write the
	// sub-solve's. No post conflicts with an unaffected applicant are
	// possible — components partition the posts.
	for _, a := range st.subApps {
		if p := st.m.PostOf[a]; p >= 0 {
			st.m.ApplicantOf[p] = -1
		}
	}
	sub := subOut.Matching
	for i, a := range st.subApps {
		ps := sub.PostOf[i]
		var p int32
		if int(ps) >= kPosts {
			p = int32(n2) + st.subApps[int(ps)-kPosts] // sub last resort -> l(a)
		} else {
			p = st.subPosts[ps]
		}
		st.m.PostOf[a] = p
		st.m.ApplicantOf[p] = a
	}
	st.exists = true
	st.peel, st.prom = subOut.Peel, subOut.Promotions
	out := st.deliver(into)
	out.Peel, out.Promotions = subOut.Peel, subOut.Promotions
	return out, nil
}

// rescan re-derives s(a) — a's most preferred post that is no applicant's
// first choice, else a's last resort — and, when a's edge pair moved (oldF
// is f(a) before this pass), counts a as changed, relinks its s-edge and
// seeds the component search with the posts of a's old and new edges.
func (st *DeltaState) rescan(c *onesided.CSR, a, oldF int32) {
	ns := int32(st.n2) + a
	for _, q := range c.Post[c.Off[a]:c.Off[a+1]] {
		if st.fCount[q] == 0 {
			ns = q
			break
		}
	}
	os := st.s[a]
	if ns == os && oldF == st.f[a] {
		return
	}
	st.stats.ChangedRows++
	st.queue = append(st.queue, oldF, os, st.f[a])
	if ns != os {
		st.s[a] = ns
		st.move(2*a+1, os, ns)
	}
}

// deliver copies the retained matching into the caller's recycled matching
// (or a fresh one) — the caller must never alias state that the next
// mutation+solve rewrites.
func (st *DeltaState) deliver(into *onesided.Matching) Outcome {
	if !st.exists {
		return Outcome{Exists: false, Peel: st.peel}
	}
	m := into
	if m == nil {
		m = &onesided.Matching{}
	}
	m.PostOf = append(m.PostOf[:0], st.m.PostOf...)
	m.ApplicantOf = append(m.ApplicantOf[:0], st.m.ApplicantOf...)
	return Outcome{Matching: m, Exists: true, Peel: st.peel, Promotions: st.prom}
}

// grow32 resizes s to n without preserving contents beyond the reused
// prefix; growU32 is the uint32 twin.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
