package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// Reduced is the reduced graph G′ of §III-A for a strictly-ordered instance:
// every applicant keeps exactly two incident edges, to f(a) (their first
// choice) and to s(a) (their most-preferred non-f-post, falling back to the
// last resort l(a)). f-posts and s-posts are disjoint.
type Reduced struct {
	Ins *onesided.Instance
	// C is the flat CSR form of Ins that the construction indexed into; it
	// is the instance-cached CSR, shared, immutable.
	C *onesided.CSR
	// F[a] and S[a] are the two posts of applicant a in G′.
	F, S []int32
	// IsF[p] marks f-posts over all TotalPosts() ids.
	IsF []bool
	// f⁻¹ in CSR form: the applicants with f(a) = p are
	// FInvApps[FInvStart[p]:FInvStart[p+1]], in increasing order.
	FInvStart []int32
	FInvApps  []int32

	// k is the solve kernel that owns the arrays above (and carries the
	// prebound loop bodies for the later phases).
	k *kernel
}

// release recycles the Reduced's arrays into cx's arena. Callers that own
// both the Reduced and the solve's arena call it once the result matching
// has been extracted; afterwards the Reduced must not be used.
func (r *Reduced) release(cx *exec.Ctx) {
	if r.k != nil {
		r.k.releaseReduced(cx)
	}
}

// BuildReduced constructs G′ in parallel (§III-B, Algorithm 1 line 3):
// one round marks f-posts, one round per applicant scans for s(a), and a
// count/scan/scatter builds f⁻¹. The rounds index directly into the
// instance's cached CSR arrays and run as the session kernel's prebound
// loops (see kernel.go). Only strictly-ordered instances are valid input
// (Algorithm 1 assumes them); instances with ties are rejected.
//
// The returned Reduced is a view into the session kernel: at most one
// Reduced per execution context may be live at a time. Building a second
// one on the same (arena-backed) context reuses — and overwrites — the
// first's arrays, so finish with (and release) a Reduced before building
// the next, as every solver entry point here does.
func BuildReduced(ins *onesided.Instance, opt Options) (r *Reduced, err error) {
	c := ins.CSR()
	if !c.Strict() {
		return nil, fmt.Errorf("core: Algorithm 1 requires strictly-ordered preference lists")
	}
	defer exec.CatchCancel(&err)
	cx := opt.exec()
	k := kernelFor(cx)
	k.begin(cx, ins, c)
	k.buildReduced()
	return &k.red, nil
}

// FInv returns the applicants whose first choice is post q.
func (r *Reduced) FInv(q int32) []int32 {
	return r.FInvApps[r.FInvStart[q]:r.FInvStart[q+1]]
}

// postsInG returns, from cx's arena, the post ids that occur in G′ (as some
// F[a] or S[a]) in increasing order, and their inverse over every post id
// (-1 for a post outside G′). The f-posts are IsF already, so one round
// marks the s-posts (a same-value concurrent write, stored only by a writer
// that finds the mark unset); a per-chunk count, a scan of the chunk counts
// and a scatter then compact them.
func (r *Reduced) postsInG(cx *exec.Ctx) (posts, vertexOf []int32) {
	total := r.Ins.TotalPosts()
	sUsed := cx.Uint32s(total)
	defer cx.PutUint32s(sUsed)
	cx.For(len(r.S), func(a int) {
		if p := &sUsed[r.S[a]]; atomic.LoadUint32(p) == 0 {
			atomic.StoreUint32(p, 1)
		}
	})
	cx.Round(len(r.S))

	grain := par.Grain(total, cx.Workers())
	block := cx.Int32s((total + grain - 1) / grain)
	defer cx.PutInt32s(block)
	cx.Range(total, grain, func(lo, hi int) {
		c := int32(0)
		for q := lo; q < hi; q++ {
			if r.IsF[q] || sUsed[q] != 0 {
				c++
			}
		}
		block[lo/grain] = c
	})
	cx.Round(total)
	nv := int32(0)
	for b, c := range block {
		block[b] = nv
		nv += c
	}
	cx.Round(len(block))
	posts = cx.Int32s(int(nv))
	vertexOf = cx.Int32s(total)
	cx.Range(total, grain, func(lo, hi int) {
		v := block[lo/grain]
		for q := lo; q < hi; q++ {
			if r.IsF[q] || sUsed[q] != 0 {
				posts[v] = int32(q)
				vertexOf[q] = v
				v++
			} else {
				vertexOf[q] = -1
			}
		}
	})
	cx.Round(total)
	return posts, vertexOf
}
