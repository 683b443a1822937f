package core

import (
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// The strict-path kernel: Algorithms 1 and 2 rewritten over the flat CSR
// instance core.
//
// Every hot loop of the strict pipeline — the G′ construction, the
// Algorithm 2 peeling/doubling rounds, the residual even-cycle matching and
// the promotion step — lives here as a prebound closure over one kernel
// object. The kernel is cached on the solve session's arena (exec.Arena.Aux)
// and its scratch vectors are drawn from that arena, so a reusable
// popmatch.Solver performs zero heap allocations in the steady state: the
// closures exist from the first solve, the scratch is recycled, and the loop
// bodies index straight into the CSR arrays (Off/Post/Rank) with no
// per-applicant slice headers in between.
//
// The computation is exactly the one documented on BuildReduced,
// applicantComplete and matchEvenCycles' original forms (see the package
// comments there); the kernel changes the memory discipline, not the
// algorithm, and produces bit-identical matchings and statistics.

// infVid is the +inf sentinel for min-folds over vertex ids.
const infVid = int32(1) << 30

type kernel struct {
	// Per-solve bindings, set by begin.
	cx  *exec.Ctx
	ins *onesided.Instance
	c   *onesided.CSR
	m   *onesided.Matching

	// red is the Reduced view handed to callers; its arrays are arena
	// scratch acquired in buildReduced and returned by Reduced.release.
	red Reduced

	n1, total, nEdges, nDarts int

	stats      PeelStats
	bad        atomic.Int32
	promotions atomic.Int32
	peeled     atomic.Int32
	pairs      atomic.Int32
	cycleCnt   atomic.Int32
	deg1Count  atomic.Int32
	aliveApps  atomic.Int32
	alivePosts atomic.Int32

	// Phase A scratch (G′ construction).
	isFBits []uint32
	postCnt []atomic.Int32 // per-post counters doubling as scatter cursors
	cnt32   []int32        // scan input

	// Phase B scratch (Algorithm 2).
	postAdjStart []int32
	postAdjEdges []int32
	aliveA       []bool
	alivePostB   []bool
	deg          []int32
	succ         []int32
	dartDead     []bool
	matchedDart  []bool
	active       []bool
	canonical    []bool
	startDist    []int32

	// Pointer-doubling buffers (current and next snapshots; results land in
	// dPtr/dVal after the final swap).
	dPtr, dVal, dNxtPtr, dNxtVal []int32

	// Block-scan state (kernel-owned; the block vector is O(workers)).
	scanSrc, scanOut []int32
	scanBlock        []int32
	scanGrain        int

	// Early-exit doubling state: per-chunk change flags (cache-line padded)
	// and the grain the prebound Range bodies use to find their flag slot.
	dblFlags []dblFlag
	dblGrain int

	// Per-solve loop grains, derived once in begin from the shared par.Grain
	// policy: applicants, posts, darts.
	grainA, grainP, grainD int

	// Prebound loop bodies. Created once per kernel in newKernel; each
	// captures only the kernel pointer, so repeat solves allocate nothing.
	fnMarkF         func(a int)
	fnLoadIsF       func(q int)
	fnFindS         func(a int)
	fnCountF        func(a int)
	fnLoadCntR      func(lo, hi int)
	fnZeroCntR      func(lo, hi int)
	fnScatterF      func(a int)
	fnSortBuckets   func(q int)
	fnScanReduce    func(lo, hi int)
	fnScanScatter   func(lo, hi int)
	fnCountAdj      func(a int)
	fnLoadAdjR      func(lo, hi int)
	fnScatterAdj    func(a int)
	fnCountDeg      func(ei int)
	fnLoadDegR      func(lo, hi int)
	fnSuccSeed      func(di int)
	fnActivate      func(qi int)
	fnMatchDarts    func(d int)
	fnApplyDeleteR  func(lo, hi int)
	fnCountAliveAR  func(lo, hi int)
	fnCountAlivePR  func(lo, hi int)
	fnCycleSuccSeed func(di int)
	fnCanonSeed     func(di int)
	fnMatchCyclesR  func(lo, hi int)
	fnDoubleSumR    func(lo, hi int)
	fnDoubleMinR    func(lo, hi int)
	fnPromoteR      func(lo, hi int)
}

// dblFlag is a cache-line-padded per-chunk change flag for the early-exit
// pointer-doubling rounds: each chunk's writer owns its own line, so flag
// traffic never invalidates a neighboring chunk's worker.
type dblFlag struct {
	v int32
	_ [60]byte
}

// kernelFor returns the session's strict-path kernel: the one owned by the
// engine cached on the execution context's arena (see engineFor), or a fresh
// engine's kernel for arena-less one-shot contexts.
func kernelFor(cx *exec.Ctx) *kernel {
	return &engineFor(cx).k
}

// init binds the kernel's loop closures; each captures only the kernel
// pointer, so repeat solves allocate nothing.
func (k *kernel) init() {

	// --- Phase A: reduced graph G′ over the CSR rows ---

	// Mark every first-choice post (arbitrary-CRCW same-value writes,
	// stored only by a writer that finds the mark unset: a load is a plain
	// move, a store an exchange). Strict rows are rank-sorted, so row start
	// = the unique first choice.
	k.fnMarkF = func(a int) {
		f := k.c.Post[k.c.Off[a]]
		k.red.F[a] = f
		if atomic.LoadUint32(&k.isFBits[f]) == 0 {
			atomic.StoreUint32(&k.isFBits[f], 1)
		}
	}
	k.fnLoadIsF = func(q int) { k.red.IsF[q] = k.isFBits[q] == 1 }
	// s(a) = highest-ranked non-f-post, else l(a): a straight scan of the
	// CSR row (the per-processor O(list) work of the paper's construction).
	k.fnFindS = func(a int) {
		s := int32(k.c.NumPosts + a)
		for _, q := range k.c.Post[k.c.Off[a]:k.c.Off[a+1]] {
			if !k.red.IsF[q] {
				s = q
				break
			}
		}
		k.red.S[a] = s
	}
	k.fnCountF = func(a int) { k.postCnt[k.red.F[a]].Add(1) }
	// Load the counts for the scan and zero the counters for the scatter
	// that follows: plain writes, which the round barrier orders before
	// that round's adds.
	k.fnLoadCntR = func(lo, hi int) {
		for q := lo; q < hi; q++ {
			k.cnt32[q] = k.postCnt[q].Load()
		}
		clear(k.postCnt[lo:hi])
	}
	k.fnZeroCntR = func(lo, hi int) { clear(k.postCnt[lo:hi]) }
	k.fnScatterF = func(a int) {
		q := k.red.F[a]
		slot := k.red.FInvStart[q] + k.postCnt[q].Add(1) - 1
		k.red.FInvApps[slot] = int32(a)
	}
	// Scatter order is nondeterministic; sort each (typically tiny) bucket
	// so "any applicant in f⁻¹(p)" picks deterministically.
	k.fnSortBuckets = func(q int) {
		bucket := k.red.FInvApps[k.red.FInvStart[q]:k.red.FInvStart[q+1]]
		for i := 1; i < len(bucket); i++ {
			for j := i; j > 0 && bucket[j] < bucket[j-1]; j-- {
				bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
			}
		}
	}

	// --- Two-phase block scan (see par.ExclusiveScan) ---
	k.fnScanReduce = func(lo, hi int) {
		s := int32(0)
		for i := lo; i < hi; i++ {
			s += k.scanSrc[i]
		}
		k.scanBlock[lo/k.scanGrain] = s
	}
	k.fnScanScatter = func(lo, hi int) {
		s := k.scanBlock[lo/k.scanGrain]
		for i := lo; i < hi; i++ {
			k.scanOut[i] = s
			s += k.scanSrc[i]
		}
	}

	// --- Phase B: Algorithm 2 over the two-edges-per-applicant graph ---

	k.fnCountAdj = func(a int) {
		k.aliveA[a] = true
		k.postCnt[k.red.F[a]].Add(1)
		k.postCnt[k.red.S[a]].Add(1)
	}
	// Before the first peel every edge is alive, so a post's adjacency
	// length is its degree and a post is alive iff it has an edge: this
	// round loads both, counts the degree-1 posts (one shared add per
	// chunk) and zeroes the counters for the scatter.
	k.fnLoadAdjR = func(lo, hi int) {
		deg1 := int32(0)
		for q := lo; q < hi; q++ {
			d := k.postCnt[q].Load()
			k.cnt32[q] = d
			k.deg[q] = d
			k.alivePostB[q] = d > 0
			if d == 1 {
				deg1++
			}
		}
		clear(k.postCnt[lo:hi])
		if deg1 != 0 {
			k.deg1Count.Add(deg1)
		}
	}
	k.fnScatterAdj = func(a int) {
		qf := k.red.F[a]
		k.postAdjEdges[k.postAdjStart[qf]+k.postCnt[qf].Add(1)-1] = int32(2 * a)
		qs := k.red.S[a]
		k.postAdjEdges[k.postAdjStart[qs]+k.postCnt[qs].Add(1)-1] = int32(2*a + 1)
	}
	k.fnCountDeg = func(ei int) {
		e := int32(ei)
		if k.edgeAlive(e) {
			k.postCnt[k.edgePost(e)].Add(1)
		}
	}
	k.fnLoadDegR = func(lo, hi int) {
		deg1 := int32(0)
		for q := lo; q < hi; q++ {
			d := k.postCnt[q].Load()
			k.deg[q] = d
			if d == 0 {
				k.alivePostB[q] = false // drop isolated posts (Algorithm 2 line 9)
			} else if d == 1 && k.alivePostB[q] {
				deg1++
			}
		}
		if deg1 != 0 {
			k.deg1Count.Add(deg1)
		}
	}
	// One fused round per peel iteration: dart successor, doubling seed
	// (terminal pointer + unit distance) and the active-flag clear all
	// depend only on index d, so they share a single barrier.
	k.fnSuccSeed = func(di int) {
		d := int32(di)
		k.active[d] = false
		e := d / 2
		if !k.edgeAlive(e) {
			k.dartDead[d] = true
			k.succ[d] = d // absorbing, never consulted
			k.dPtr[d] = d
			k.dVal[d] = 0
			return
		}
		k.dartDead[d] = false
		var s int32
		if d%2 == 0 {
			// applicant -> post: continue through the post iff deg 2.
			q := k.edgePost(e)
			if k.deg[q] != 2 {
				s = d // terminal
			} else {
				var other int32 = -1
				for t := k.postAdjStart[q]; t < k.postAdjStart[q+1]; t++ {
					e2 := k.postAdjEdges[t]
					if e2 != e && k.edgeAlive(e2) {
						other = e2
						break
					}
				}
				s = 2*other + 1 // post -> applicant along the other edge
			}
		} else {
			// post -> applicant: applicants always have degree 2; exit
			// along the applicant's other edge.
			a := e / 2
			var other int32
			if e%2 == 0 {
				other = 2*a + 1
			} else {
				other = 2 * a
			}
			s = 2 * other // applicant -> post
		}
		k.succ[d] = s
		k.dPtr[d] = s
		if s != d {
			k.dVal[d] = 1
		} else {
			k.dVal[d] = 0
		}
	}
	// Every degree-1 post activates its chain; if both endpoints have
	// degree 1 the smaller post id wins ("we only consider this path once").
	k.fnActivate = func(qi int) {
		q := int32(qi)
		if !k.alivePostB[q] || k.deg[q] != 1 {
			return
		}
		var e0 int32 = -1
		for t := k.postAdjStart[q]; t < k.postAdjStart[q+1]; t++ {
			e2 := k.postAdjEdges[t]
			if k.edgeAlive(e2) {
				e0 = e2
				break
			}
		}
		if e0 < 0 {
			k.bad.Store(1)
			return
		}
		d0 := 2*e0 + 1 // q -> applicant
		term := k.dPtr[d0]
		if k.succ[term] != term {
			k.bad.Store(2) // chain did not terminate: impossible
			return
		}
		// Head vertex of the terminal dart: terminals are always
		// post-headed (applicant-headed darts always continue).
		endPost := k.edgePost(term / 2)
		if k.deg[endPost] == 1 && endPost < q {
			return
		}
		k.active[term] = true
		k.startDist[term] = k.dVal[d0]
	}
	k.fnMatchDarts = func(d int) {
		k.matchedDart[d] = false
		if k.dartDead[d] {
			return
		}
		term := k.dPtr[d]
		if !k.active[term] {
			return
		}
		if (k.startDist[term]-k.dVal[d])%2 == 0 {
			k.matchedDart[d] = true
		}
	}
	// Fused apply+delete: both rounds key off the precomputed matchedDart
	// flags and write disjoint arrays (the matching vs. the aliveness
	// vectors), so neither observes the other's effect and one barrier
	// suffices.
	k.fnApplyDeleteR = func(lo, hi int) {
		peeled := int32(0)
		for d := lo; d < hi; d++ {
			if !k.matchedDart[d] {
				continue
			}
			e := int32(d) / 2
			a := e / 2
			q := k.edgePost(e)
			k.m.PostOf[a] = q
			k.m.ApplicantOf[q] = a
			peeled++
			k.aliveA[a] = false
			k.alivePostB[q] = false
		}
		if peeled != 0 {
			k.peeled.Add(peeled)
		}
	}
	k.fnCountAliveAR = func(lo, hi int) {
		c := int32(0)
		for _, alive := range k.aliveA[lo:hi] {
			if alive {
				c++
			}
		}
		if c != 0 {
			k.aliveApps.Add(c)
		}
	}
	k.fnCountAlivePR = func(lo, hi int) {
		c := int32(0)
		for _, alive := range k.alivePostB[lo:hi] {
			if alive {
				c++
			}
		}
		if c != 0 {
			k.alivePosts.Add(c)
		}
	}

	// --- Residual even cycles (§III-B-1) ---

	// Fused cycle successor + leader-election seed: the seed reads only
	// this dart's succ/dartDead, both written just above it. When the
	// 2-regularity check trips (bad != 0) the seeded values are discarded
	// by the caller before any doubling runs.
	k.fnCycleSuccSeed = func(di int) {
		d := int32(di)
		e := d / 2
		if !k.edgeAlive(e) {
			k.dartDead[d] = true
			k.succ[d] = d
			k.dPtr[d] = d
			k.dVal[d] = infVid
			return
		}
		k.dartDead[d] = false
		var s int32
		if d%2 == 0 {
			q := k.edgePost(e)
			var other int32 = -1
			for t := k.postAdjStart[q]; t < k.postAdjStart[q+1]; t++ {
				e2 := k.postAdjEdges[t]
				if e2 != e && k.edgeAlive(e2) {
					other = e2
					break
				}
			}
			if other < 0 {
				k.bad.Store(1)
				s = d
			} else {
				s = 2*other + 1
			}
		} else {
			a := e / 2
			var other int32
			if e%2 == 0 {
				other = 2*a + 1
			} else {
				other = 2 * a
			}
			s = 2 * other
		}
		k.succ[d] = s
		k.dPtr[d] = s
		k.dVal[d] = k.headVid(d)
	}
	// Fused canonical-dart selection + distance seed. Canonical darts: the
	// leader applicant's outgoing dart toward its smaller post — exactly
	// one of the two orientations per cycle. The canonical test consumes
	// this dart's min-fold leader (dVal[d]) before the seed overwrites it,
	// and the seed reads only canonical[d], so one barrier suffices.
	k.fnCanonSeed = func(di int) {
		d := int32(di)
		can := false
		if !k.dartDead[d] && d%2 == 0 { // only applicant->post darts can leave the leader
			e := d / 2
			a := e / 2
			if a == k.dVal[d] { // dVal holds the min-fold leader after doubling
				minPost := k.red.F[a]
				if k.red.S[a] < minPost {
					minPost = k.red.S[a]
				}
				can = k.edgePost(e) == minPost
			}
		}
		k.canonical[d] = can
		if can || k.dartDead[d] {
			k.dPtr[d] = d
			k.dVal[d] = 0
		} else {
			k.dPtr[d] = k.succ[d]
			k.dVal[d] = 1
		}
	}
	// Edges whose forward dart sits at even distance from the canonical
	// dart are matched (the "even distance from e" rule).
	k.fnMatchCyclesR = func(lo, hi int) {
		cycles, pairs := int32(0), int32(0)
		for d := int32(lo); d < int32(hi); d++ {
			if k.dartDead[d] {
				continue
			}
			if k.canonical[d] {
				cycles++
			}
			if !k.canonical[k.dPtr[d]] {
				continue // reverse orientation: never reaches a canonical dart
			}
			if k.dVal[d]%2 != 0 {
				continue
			}
			e := d / 2
			a := e / 2
			q := k.edgePost(e)
			k.m.PostOf[a] = q
			k.m.ApplicantOf[q] = a
			pairs++
		}
		if cycles != 0 {
			k.cycleCnt.Add(cycles)
		}
		if pairs != 0 {
			k.pairs.Add(pairs)
		}
	}

	// --- Pointer doubling (the paper's doubling trick, double-buffered) ---
	//
	// Both bodies are chunk (Range) form so each chunk tracks whether it
	// changed anything this round; doubleRounds exits at the global
	// fixpoint instead of always running the worst-case ceil(log2 n)+1
	// rounds. The sum fold tracks pointer and value changes: no change
	// means every pointee is absorbing with zero distance, a true
	// fixpoint. The min fold tracks value changes only — on a cycle whose
	// length is not a power of two the pointers rotate forever, but once
	// no value decreases anywhere, dVal[dPtr[v]] >= dVal[v] holds
	// everywhere and is preserved by every further round, so the frozen
	// values already equal the full-round result. The exit predicate is a
	// global any-change, identical under any chunking, so the executed
	// round count (and the result) is worker-count-independent.
	k.fnDoubleSumR = func(lo, hi int) {
		changed := false
		for v := lo; v < hi; v++ {
			w := k.dPtr[v]
			nv := k.dVal[v] + k.dVal[w]
			np := k.dPtr[w]
			if nv != k.dVal[v] || np != k.dPtr[v] {
				changed = true
			}
			k.dNxtVal[v] = nv
			k.dNxtPtr[v] = np
		}
		if changed {
			k.dblFlags[lo/k.dblGrain].v = 1
		}
	}
	k.fnDoubleMinR = func(lo, hi int) {
		changed := false
		for v := lo; v < hi; v++ {
			w := k.dPtr[v]
			a, b := k.dVal[v], k.dVal[w]
			if b < a {
				a = b
				changed = true
			}
			k.dNxtVal[v] = a
			k.dNxtPtr[v] = k.dPtr[w]
		}
		if changed {
			k.dblFlags[lo/k.dblGrain].v = 1
		}
	}

	// --- Algorithm 1 lines 5-7: promotion ---
	k.fnPromoteR = func(lo, hi int) {
		promoted := int32(0)
		for q := int32(lo); q < int32(hi); q++ {
			if !k.red.IsF[q] || k.m.ApplicantOf[q] >= 0 {
				continue
			}
			apps := k.red.FInv(q)
			if len(apps) == 0 {
				k.bad.Store(1)
				continue
			}
			a := apps[0]
			old := k.m.PostOf[a]
			if old != k.red.S[a] {
				// Theorem 1(ii): a must currently hold s(a) since f(a)=q is
				// unmatched.
				k.bad.Store(2)
				continue
			}
			k.m.ApplicantOf[old] = -1
			k.m.PostOf[a] = q
			k.m.ApplicantOf[q] = a
			promoted++
		}
		if promoted != 0 {
			k.promotions.Add(promoted)
		}
	}
}

func (k *kernel) edgePost(e int32) int32 {
	if e%2 == 0 {
		return k.red.F[e/2]
	}
	return k.red.S[e/2]
}

func (k *kernel) edgeAlive(e int32) bool {
	return k.aliveA[e/2] && k.alivePostB[k.edgePost(e)]
}

// headVid maps a dart to its head vertex id: applicant a is vid a, post q is
// vid n1+q, so cycle leaders are always applicants.
func (k *kernel) headVid(d int32) int32 {
	e := d / 2
	if d%2 == 0 {
		return int32(k.n1) + k.edgePost(e) // applicant -> post
	}
	return e / 2 // post -> applicant
}

// begin binds the kernel to one solve: execution context, instance and its
// CSR form.
func (k *kernel) begin(cx *exec.Ctx, ins *onesided.Instance, c *onesided.CSR) {
	k.cx = cx
	k.ins = ins
	k.c = c
	k.n1 = c.NumApplicants
	k.total = c.TotalPosts()
	k.nEdges = 2 * k.n1
	k.nDarts = 2 * k.nEdges
	w := cx.Workers()
	k.grainA = par.Grain(k.n1, w)
	k.grainP = par.Grain(k.total, w)
	k.grainD = par.Grain(k.nDarts, w)
}

// exclusiveScan32 scans k.scanSrc[:n] exclusively into k.scanOut[:n] and
// returns the total, with the same two-round block structure (and PRAM
// accounting) as par.ExclusiveScan.
func (k *kernel) exclusiveScan32(n int) int32 {
	if n == 0 {
		return 0
	}
	grain := par.Grain(n, k.cx.Workers())
	k.scanGrain = grain
	nblocks := (n + grain - 1) / grain
	if cap(k.scanBlock) < nblocks {
		k.scanBlock = make([]int32, nblocks)
	}
	k.scanBlock = k.scanBlock[:nblocks]
	// The pool's sequential fast path may run the whole range as one chunk,
	// writing only block 0; clear the (O(workers)-sized) block vector so
	// stale sums from an earlier scan never leak into the serial pass.
	clear(k.scanBlock)
	k.cx.Range(n, grain, k.fnScanReduce)
	k.cx.Round(n)
	running := int32(0)
	for b := 0; b < nblocks; b++ {
		s := k.scanBlock[b]
		k.scanBlock[b] = running
		running += s
	}
	k.cx.Round(nblocks)
	k.cx.Range(n, grain, k.fnScanScatter)
	k.cx.Round(n)
	return running
}

// doubleRounds runs up to `rounds` pointer-doubling steps over the seeded
// dPtr/dVal buffers with the given prebound chunk body; results land in
// dPtr/dVal. It exits as soon as a round changes nothing (see the fold
// bodies for why that is a sound fixpoint test for each fold): typical
// instances have short chains and small cycles, so most doubling ladders
// finish in far fewer than the worst-case ceil(log2 n)+1 rounds.
func (k *kernel) doubleRounds(n, rounds int, body func(lo, hi int)) {
	grain := par.Grain(n, k.cx.Workers())
	k.dblGrain = grain
	nblocks := (n + grain - 1) / grain
	if cap(k.dblFlags) < nblocks {
		k.dblFlags = make([]dblFlag, nblocks)
	}
	flags := k.dblFlags[:nblocks]
	for i := 0; i < rounds; i++ {
		for b := range flags {
			flags[b].v = 0
		}
		k.cx.Range(n, grain, body)
		k.cx.Round(n)
		k.dPtr, k.dNxtPtr = k.dNxtPtr, k.dPtr
		k.dVal, k.dNxtVal = k.dNxtVal, k.dVal
		fixed := true
		for b := range flags {
			if flags[b].v != 0 {
				fixed = false
				break
			}
		}
		if fixed {
			return
		}
	}
}

// buildReduced constructs G′ (§III-B, Algorithm 1 line 3) into k.red. The
// Reduced arrays are arena scratch, returned by Reduced.release.
func (k *kernel) buildReduced() {
	cx := k.cx
	n1, total := k.n1, k.total

	k.red.Ins = k.ins
	k.red.C = k.c
	k.red.k = k
	k.red.F = cx.Int32s(n1)
	k.red.S = cx.Int32s(n1)
	k.red.IsF = cx.Bools(total)
	k.red.FInvStart = cx.Int32s(total + 1)
	// Every applicant has exactly one f-post, so |f⁻¹| entries total n1.
	k.red.FInvApps = cx.Int32s(n1)

	k.isFBits = cx.Uint32s(total)
	k.postCnt = cx.AtomicInt32s(total)
	k.cnt32 = cx.Int32s(total)

	// Round 1: mark f-posts.
	cx.ForGrain(n1, k.grainA, k.fnMarkF)
	cx.Round(n1)
	cx.ForGrain(total, k.grainP, k.fnLoadIsF)
	cx.Round(total)

	// Round 2: find s(a).
	cx.ForGrain(n1, k.grainA, k.fnFindS)
	cx.Round(n1)

	// f⁻¹ as CSR: count, scan, scatter, sort buckets.
	cx.ForGrain(n1, k.grainA, k.fnCountF)
	cx.Round(n1)
	cx.Range(total, k.grainP, k.fnLoadCntR)
	cx.Round(total)
	k.scanSrc, k.scanOut = k.cnt32, k.red.FInvStart
	totalApps := k.exclusiveScan32(total)
	k.red.FInvStart[total] = totalApps
	cx.ForGrain(n1, k.grainA, k.fnScatterF)
	cx.Round(n1)
	cx.ForGrain(total, k.grainP, k.fnSortBuckets)
	cx.Round(int(totalApps))

	cx.PutUint32s(k.isFBits)
	cx.PutAtomicInt32s(k.postCnt)
	cx.PutInt32s(k.cnt32)
	k.isFBits, k.postCnt, k.cnt32 = nil, nil, nil
}

// releaseReduced recycles the phase A arrays and drops every reference to
// the solve's caller-owned data (instance, CSR, result matching), so an
// idle pooled session pins nothing; called via Reduced.release.
func (k *kernel) releaseReduced(cx *exec.Ctx) {
	r := &k.red
	cx.PutInt32s(r.F)
	cx.PutInt32s(r.S)
	cx.PutBools(r.IsF)
	cx.PutInt32s(r.FInvStart)
	cx.PutInt32s(r.FInvApps)
	r.F, r.S, r.IsF, r.FInvStart, r.FInvApps = nil, nil, nil, nil, nil
	r.Ins, r.C, r.k = nil, nil, nil
	k.ins, k.c, k.m, k.cx = nil, nil, nil, nil
}

// acquireB draws the Algorithm 2 scratch from the arena; releaseB returns
// it.
func (k *kernel) acquireB() {
	cx := k.cx
	total, nDarts := k.total, k.nDarts
	k.postCnt = cx.AtomicInt32s(total)
	k.cnt32 = cx.Int32s(total)
	k.postAdjStart = cx.Int32s(total + 1)
	k.postAdjEdges = cx.Int32s(k.nEdges)
	k.aliveA = cx.Bools(k.n1)
	k.alivePostB = cx.Bools(total)
	k.deg = cx.Int32s(total)
	k.succ = cx.Int32s(nDarts)
	k.dartDead = cx.Bools(nDarts)
	k.matchedDart = cx.Bools(nDarts)
	k.active = cx.Bools(nDarts)
	k.canonical = cx.Bools(nDarts)
	k.startDist = cx.Int32s(nDarts)
	k.dPtr = cx.Int32s(nDarts)
	k.dVal = cx.Int32s(nDarts)
	k.dNxtPtr = cx.Int32s(nDarts)
	k.dNxtVal = cx.Int32s(nDarts)
}

func (k *kernel) releaseB() {
	cx := k.cx
	cx.PutAtomicInt32s(k.postCnt)
	cx.PutInt32s(k.cnt32)
	cx.PutInt32s(k.postAdjStart)
	cx.PutInt32s(k.postAdjEdges)
	cx.PutBools(k.aliveA)
	cx.PutBools(k.alivePostB)
	cx.PutInt32s(k.deg)
	cx.PutInt32s(k.succ)
	cx.PutBools(k.dartDead)
	cx.PutBools(k.matchedDart)
	cx.PutBools(k.active)
	cx.PutBools(k.canonical)
	cx.PutInt32s(k.startDist)
	cx.PutInt32s(k.dPtr)
	cx.PutInt32s(k.dVal)
	cx.PutInt32s(k.dNxtPtr)
	cx.PutInt32s(k.dNxtVal)
	k.postCnt, k.cnt32 = nil, nil
	k.postAdjStart, k.postAdjEdges = nil, nil
	k.aliveA, k.alivePostB, k.deg = nil, nil, nil
	k.succ, k.dartDead, k.matchedDart, k.active, k.canonical = nil, nil, nil, nil, nil
	k.startDist, k.dPtr, k.dVal, k.dNxtPtr, k.dNxtVal = nil, nil, nil, nil, nil
}

// applicantComplete runs Algorithm 2 into m (allocated or Reset by the
// caller). It returns false when no applicant-complete matching exists.
func (k *kernel) applicantComplete(m *onesided.Matching) (ok bool, err error) {
	cx := k.cx
	k.m = m
	k.stats = PeelStats{Valid: true}
	if k.n1 == 0 {
		return true, nil
	}
	n1, total, nEdges, nDarts := k.n1, k.total, k.nEdges, k.nDarts
	dblRounds := par.Iterations(nDarts) + 1

	k.acquireB()
	defer k.releaseB()

	// Static post adjacency (CSR over edge ids), initial aliveness and the
	// first peel iteration's degrees.
	cx.ForGrain(n1, k.grainA, k.fnCountAdj)
	cx.Round(n1)
	k.deg1Count.Store(0)
	cx.Range(total, k.grainP, k.fnLoadAdjR)
	cx.Round(total)
	k.scanSrc, k.scanOut = k.cnt32, k.postAdjStart
	totalAdj := k.exclusiveScan32(total)
	k.postAdjStart[total] = totalAdj
	cx.ForGrain(n1, k.grainA, k.fnScatterAdj)
	cx.Round(n1)

	for first := true; ; first = false {
		// --- degrees over alive edges (the first iteration's were loaded
		// with the adjacency) ---
		if !first {
			cx.Range(total, k.grainP, k.fnZeroCntR)
			cx.Round(total)
			cx.ForGrain(nEdges, k.grainD, k.fnCountDeg)
			cx.Round(nEdges)
			k.deg1Count.Store(0)
			cx.Range(total, k.grainP, k.fnLoadDegR)
			cx.Round(total)
		}
		if k.deg1Count.Load() == 0 {
			break
		}
		k.stats.Rounds++

		// --- fused: dart successors + doubling seed + active clear ---
		cx.ForGrain(nDarts, k.grainD, k.fnSuccSeed)
		cx.Round(nDarts)

		// --- doubling: terminal dart + distance for every chain ---
		k.doubleRounds(nDarts, dblRounds, k.fnDoubleSumR)

		// --- activate chains from degree-1 posts ---
		k.bad.Store(0)
		cx.ForGrain(total, k.grainP, k.fnActivate)
		cx.Round(int(k.deg1Count.Load()))
		switch k.bad.Load() {
		case 1:
			return false, errDeg1NoEdge
		case 2:
			return false, errChainNoTerm
		}

		// --- match darts at even distance from the chain start ---
		cx.ForGrain(nDarts, k.grainD, k.fnMatchDarts)
		cx.Round(nDarts)

		// --- fused: apply matches + delete matched vertices ---
		k.peeled.Store(0)
		cx.Range(nDarts, k.grainD, k.fnApplyDeleteR)
		cx.Round(nDarts)
		k.stats.PeeledPairs += int(k.peeled.Load())
	}

	// --- residual check: Hall condition by counting (§III-B-1) ---
	k.aliveApps.Store(0)
	k.alivePosts.Store(0)
	cx.Range(n1, k.grainA, k.fnCountAliveAR)
	cx.Round(n1)
	cx.Range(total, k.grainP, k.fnCountAlivePR)
	cx.Round(total)
	aliveApplicants := int(k.aliveApps.Load())
	if int(k.alivePosts.Load()) < aliveApplicants {
		return false, nil // no applicant-complete matching
	}
	if aliveApplicants == 0 {
		return true, nil
	}
	// |P| = |A| and every post has degree exactly 2: disjoint even cycles.
	// Leader election (min head vid, idempotent fold), canonical darts,
	// then distance-to-canonical with canonical darts absorbing.
	k.bad.Store(0)
	cx.ForGrain(nDarts, k.grainD, k.fnCycleSuccSeed)
	cx.Round(nDarts)
	if k.bad.Load() != 0 {
		return false, errNot2Regular
	}
	k.doubleRounds(nDarts, dblRounds, k.fnDoubleMinR)
	cx.ForGrain(nDarts, k.grainD, k.fnCanonSeed)
	cx.Round(nDarts)
	k.doubleRounds(nDarts, dblRounds, k.fnDoubleSumR)
	k.pairs.Store(0)
	k.cycleCnt.Store(0)
	cx.Range(nDarts, k.grainD, k.fnMatchCyclesR)
	cx.Round(nDarts)
	k.stats.CyclePairs = int(k.pairs.Load())
	k.stats.CycleCount = int(k.cycleCnt.Load())
	return true, nil
}

// promote performs Algorithm 1 lines 5-7 in one parallel round; see the
// documentation on the package-level promote.
func (k *kernel) promote(m *onesided.Matching) (int, error) {
	k.m = m
	k.bad.Store(0)
	k.promotions.Store(0)
	k.cx.Range(k.total, k.grainP, k.fnPromoteR)
	k.cx.Round(k.total)
	switch k.bad.Load() {
	case 1:
		return 0, errEmptyFInv
	case 2:
		return 0, errBadPromotion
	}
	return int(k.promotions.Load()), nil
}
