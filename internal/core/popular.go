package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/onesided"
	"repro/internal/par"
)

// Sentinel errors for impossible-by-theory states detected inside the
// kernel's parallel rounds (package-level so the hot path allocates nothing
// even when raising them).
var (
	errDeg1NoEdge   = errors.New("core: degree-1 post with no alive edge")
	errChainNoTerm  = errors.New("core: peeling chain failed to terminate")
	errNot2Regular  = errors.New("core: residual graph is not 2-regular")
	errEmptyFInv    = errors.New("core: f-post with empty f⁻¹")
	errBadPromotion = errors.New("core: promotion source not matched to its s-post")
)

// Result is the outcome of a popular-matching computation outside the
// engine: PopularViaMatching and the counting and enumeration paths.
type Result struct {
	// Matching is the computed matching, nil when Exists is false.
	Matching *onesided.Matching
	// Exists reports whether a popular matching exists.
	Exists bool
	// Peel reports Algorithm 2's statistics; Peel.Valid is false for
	// algorithms that do not run it.
	Peel PeelStats
	// Promotions counts the f-posts filled in Algorithm 1's final loop.
	Promotions int
}

func popularFromReduced(r *Reduced, opt Options) (Result, error) {
	return popularFromReducedInto(r, nil, opt)
}

func popularFromReducedInto(r *Reduced, m *onesided.Matching, opt Options) (Result, error) {
	k := r.k
	cx := opt.exec()
	if m == nil {
		m = onesided.NewMatching(r.Ins)
	} else {
		m.Reset(r.Ins)
	}
	cx.Phase(par.PhasePeel)
	ok, err := k.applicantComplete(m)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		cx.Phase(par.PhaseOther)
		return Result{Exists: false, Peel: k.stats}, nil
	}
	cx.Phase(par.PhasePromote)
	promotions, err := k.promote(m)
	if err != nil {
		return Result{}, err
	}
	cx.Phase(par.PhaseOther)
	return Result{Matching: m, Exists: true, Peel: k.stats, Promotions: promotions}, nil
}

// VerifyPopular checks the Theorem 1 characterization of m against a
// strictly-ordered instance: (i) every f-post is matched, and (ii) every
// applicant holds f(a) or s(a). It returns nil iff m is popular.
func VerifyPopular(ins *onesided.Instance, m *onesided.Matching, opt Options) (err error) {
	defer exec.CatchCancel(&err)
	if err := m.Validate(ins); err != nil {
		return err
	}
	if !m.ApplicantComplete() {
		return errors.New("matching is not applicant-complete")
	}
	r, err := BuildReduced(ins, opt)
	if err != nil {
		return err
	}
	cx := opt.exec()
	defer r.release(cx)
	var iViolation, iiViolation atomic.Int32
	cx.For(ins.TotalPosts(), func(q int) {
		if r.IsF[q] && m.ApplicantOf[q] < 0 {
			iViolation.Store(int32(q) + 1)
		}
	})
	cx.Round(ins.TotalPosts())
	cx.For(ins.NumApplicants, func(a int) {
		if got := m.PostOf[a]; got != r.F[a] && got != r.S[a] {
			iiViolation.Store(int32(a) + 1)
		}
	})
	cx.Round(ins.NumApplicants)
	if q := iViolation.Load(); q != 0 {
		return fmt.Errorf("f-post %d unmatched (Theorem 1(i))", q-1)
	}
	if a := iiViolation.Load(); a != 0 {
		return fmt.Errorf("applicant %d not matched to f(a) or s(a) (Theorem 1(ii))", a-1)
	}
	return nil
}
