package par

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Phase labels the algorithm phase a round belongs to, so a per-solve trace
// can attribute rounds, work and wall time to the paper's pipeline stages
// rather than one undifferentiated total. PhaseOther is the zero value and
// collects everything not explicitly attributed (ties reductions, optimizers,
// verification).
type Phase uint8

const (
	PhaseOther Phase = iota
	PhaseValidate
	PhaseBuildReduced
	PhasePeel
	PhasePromote
	PhaseSplice
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseOther:        "other",
	PhaseValidate:     "validate",
	PhaseBuildReduced: "build-reduced",
	PhasePeel:         "peel",
	PhasePromote:      "promote",
	PhaseSplice:       "splice",
}

// String returns the phase's wire name ("peel", "build-reduced", ...).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// TracePhases lists every phase in reporting order: the solve pipeline first,
// the catch-all last.
var TracePhases = [numPhases]Phase{
	PhaseValidate, PhaseBuildReduced, PhasePeel, PhasePromote, PhaseSplice,
	PhaseOther,
}

// phaseCounters accumulates one phase's share of the trace.
type phaseCounters struct {
	rounds atomic.Int64
	work   atomic.Int64
	ns     atomic.Int64
}

// Tracer accumulates PRAM cost measures for an algorithm run.
//
// Rounds counts bulk-synchronous parallel steps (the PRAM time / span of the
// execution: each Round call is one synchronous "for ... in parallel do"
// step, regardless of how many workers execute it). Work counts the total
// number of elementary operations across all rounds. An NC algorithm must
// show Rounds = polylog(n) and Work = poly(n); the experiment harness asserts
// exactly that.
//
// Beyond the two NC totals, a Tracer attributes rounds/work/wall-time to the
// current Phase (set with BeginPhase, normally via exec.Ctx.Phase) and
// accumulates the scheduler's completion-barrier wait, so a per-solve trace
// can show where a solve's time actually goes. Phase transitions are expected
// from the solve's calling goroutine; all counters are atomic, so a tracer
// shared by concurrent solves stays race-free (its phase attribution is then
// aggregate, not per-solve — use a per-solve tracer for faithful traces).
//
// A nil *Tracer is valid and records nothing, so algorithms thread the tracer
// unconditionally.
type Tracer struct {
	rounds      atomic.Int64
	work        atomic.Int64
	barrierWait atomic.Int64

	cur      atomic.Int32 // current Phase
	curStart atomic.Int64 // UnixNano of the current phase's start; 0 = untimed
	phases   [numPhases]phaseCounters
}

// Round records one bulk-synchronous parallel step that performed `work`
// elementary operations. Safe for concurrent use; a nil receiver is a no-op.
func (t *Tracer) Round(work int) {
	if t == nil {
		return
	}
	t.rounds.Add(1)
	t.work.Add(int64(work))
	p := &t.phases[t.cur.Load()]
	p.rounds.Add(1)
	p.work.Add(int64(work))
}

// BeginPhase closes the current phase's wall-time span and enters p.
// Subsequent Round and barrier-wait attribution lands on p until the next
// transition. Call BeginPhase(PhaseOther) after a solve to close the last
// span. A nil receiver is a no-op.
func (t *Tracer) BeginPhase(p Phase) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	old := t.cur.Swap(int32(p))
	start := t.curStart.Swap(now)
	if start != 0 {
		t.phases[old].ns.Add(now - start)
	}
}

// AddBarrierWait accumulates time the calling goroutine spent in a round's
// completion barrier waiting for recruited helpers. Called by the pool's
// dispatch on traced rounds.
func (t *Tracer) AddBarrierWait(ns int64) {
	if t == nil {
		return
	}
	t.barrierWait.Add(ns)
}

// Rounds reports the number of parallel rounds recorded so far.
func (t *Tracer) Rounds() int64 {
	if t == nil {
		return 0
	}
	return t.rounds.Load()
}

// Work reports the total work recorded so far.
func (t *Tracer) Work() int64 {
	if t == nil {
		return 0
	}
	return t.work.Load()
}

// BarrierWaitNs reports the accumulated completion-barrier wait.
func (t *Tracer) BarrierWaitNs() int64 {
	if t == nil {
		return 0
	}
	return t.barrierWait.Load()
}

// PhaseStats reports phase p's accumulated rounds, work and wall time.
func (t *Tracer) PhaseStats(p Phase) (rounds, work, ns int64) {
	if t == nil || p >= numPhases {
		return 0, 0, 0
	}
	pc := &t.phases[p]
	return pc.rounds.Load(), pc.work.Load(), pc.ns.Load()
}

// Reset clears the counters, the phase attribution and the barrier-wait
// accounting, returning the tracer to PhaseOther with timing disarmed until
// the next BeginPhase.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.rounds.Store(0)
	t.work.Store(0)
	t.barrierWait.Store(0)
	t.cur.Store(int32(PhaseOther))
	t.curStart.Store(0)
	for i := range t.phases {
		t.phases[i].rounds.Store(0)
		t.phases[i].work.Store(0)
		t.phases[i].ns.Store(0)
	}
}

// String summarizes the counters, e.g. "rounds=12 work=48210".
func (t *Tracer) String() string {
	if t == nil {
		return "rounds=0 work=0"
	}
	return fmt.Sprintf("rounds=%d work=%d", t.Rounds(), t.Work())
}
