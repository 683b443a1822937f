// Package exec provides the unified execution context every solver in this
// repository runs on.
//
// A Ctx bundles the four concerns the algorithm layers used to thread by
// hand as a (Pool, Tracer) pair:
//
//   - a persistent worker pool (par.Pool) whose goroutines outlive
//     individual solves, so repeated solves pay no spawn cost;
//   - a par.Tracer accumulating PRAM rounds and work for the NC accounting;
//   - a context.Context whose cancellation/deadline is checked at every
//     bulk-synchronous round boundary;
//   - an optional Arena recycling scratch slices across solves.
//
// Ctx implements par.Runner, so every parallel primitive (par.Double,
// par.ExclusiveScan, ...) and every algorithm package runs on it
// unchanged.
//
// # Cancellation
//
// Cancellation unwinds the solver stack with a panic carrying a private
// sentinel, raised on the calling goroutine at a round boundary (never
// inside worker goroutines). Public entry points convert it back into the
// context's error with
//
//	func SolveRequest(...) (out Outcome, err error) {
//	    defer exec.CatchCancel(&err)
//	    ...
//	}
//
// This keeps the deep PRAM-simulation call chains free of error plumbing
// while guaranteeing prompt, goroutine-leak-free returns.
package exec

import (
	"context"

	"repro/internal/par"
)

// Config assembles a Ctx. Every field is optional; the zero value runs on
// the process-wide shared pool with no tracing, no cancellation and no
// arena.
type Config struct {
	// Context carries cancellation and deadlines; nil means
	// context.Background().
	Context context.Context
	// Pool supplies the workers; nil means par.Shared().
	Pool *par.Pool
	// Tracer, if non-nil, accumulates parallel rounds and work.
	Tracer *par.Tracer
	// Arena, if non-nil, recycles scratch buffers across solves. An Arena
	// (and therefore the Ctx) must not be shared by concurrent solves.
	Arena *Arena
}

// Ctx is the execution context. Construct with New or Background.
type Ctx struct {
	pool  *par.Pool
	tr    *par.Tracer
	gctx  context.Context
	arena *Arena
}

// New returns a Ctx for cfg, applying the documented defaults.
func New(cfg Config) *Ctx {
	c := &Ctx{}
	c.Reset(cfg)
	return c
}

// Reset re-points an existing Ctx at cfg, applying the same defaults as
// New. It lets a pooled session reuse one Ctx allocation across solves; the
// Ctx must not be in use by a concurrent solve.
func (c *Ctx) Reset(cfg Config) {
	c.pool, c.tr, c.gctx, c.arena = cfg.Pool, cfg.Tracer, cfg.Context, cfg.Arena
	if c.pool == nil {
		c.pool = par.Shared()
	}
	if c.gctx == nil {
		c.gctx = context.Background()
	}
}

// Background returns a Ctx on the shared pool with no tracing, cancellation
// or arena — the default context for one-shot calls and tests.
func Background() *Ctx { return New(Config{}) }

// Err returns the context's error, nil while the solve may proceed.
func (c *Ctx) Err() error { return c.gctx.Err() }

// cancelPanic carries the context error through the solver stack; see
// CatchCancel.
type cancelPanic struct{ err error }

// Check panics with the cancellation sentinel if the context is done. It is
// called automatically at every round boundary; long sequential sections may
// call it directly.
func (c *Ctx) Check() {
	if err := c.gctx.Err(); err != nil {
		panic(cancelPanic{err})
	}
}

// CatchCancel recovers the cancellation sentinel raised by Ctx.Check and
// stores the context's error into *err. Any other panic is re-raised. Use as
// a deferred call at public solver boundaries.
func CatchCancel(err *error) {
	if r := recover(); r != nil {
		if c, ok := r.(cancelPanic); ok {
			*err = c.err
			return
		}
		panic(r)
	}
}

// For runs fn(i) for every i in [0, n) as one parallel round, checking
// cancellation first. Part of par.Runner. With a tracer attached the round
// also measures its completion-barrier wait into the tracer. Chunks are
// sized by par.Grain.
func (c *Ctx) For(n int, fn func(i int)) {
	c.Check()
	c.pool.ForGrainTr(n, par.Grain(n, c.pool.Workers()), fn, c.tr)
}

// ForGrain is For with an explicit grain. Part of par.Runner.
func (c *Ctx) ForGrain(n, grain int, fn func(i int)) {
	c.Check()
	c.pool.ForGrainTr(n, grain, fn, c.tr)
}

// Range hands contiguous chunks to workers, checking cancellation first.
// Part of par.Runner.
func (c *Ctx) Range(n, grain int, fn func(lo, hi int)) {
	c.Check()
	c.pool.RangeTr(n, grain, fn, c.tr)
}

// Workers reports the pool's parallelism. Part of par.Runner.
func (c *Ctx) Workers() int { return c.pool.Workers() }

// Round records one bulk-synchronous step in the tracer. Part of par.Runner.
func (c *Ctx) Round(work int) { c.tr.Round(work) }

// Phase marks the start of an algorithm phase in the tracer: subsequent
// rounds, work and wall time are attributed to p until the next Phase call.
// A no-op without a tracer, so kernels call it unconditionally.
func (c *Ctx) Phase(p par.Phase) { c.tr.BeginPhase(p) }

// Arena returns the attached arena (possibly nil).
func (c *Ctx) Arena() *Arena { return c.arena }

// NoCancel returns a view of the context that never observes cancellation
// (pool, tracer and arena are shared). Operations that cannot report errors
// — and would therefore let the cancellation sentinel escape as a panic —
// run their loops on this view; their callers' round boundaries still
// observe the real context.
func (c *Ctx) NoCancel() *Ctx {
	if c.gctx == context.Background() {
		return c
	}
	d := *c
	d.gctx = context.Background()
	return &d
}

// The typed scratch accessors below allocate from the arena when one is
// attached and fall back to plain make otherwise; the matching Put methods
// recycle a slice for later Gets and are no-ops without an arena. Slices
// handed to Put must not be referenced afterwards, and nothing reachable
// from a solver's returned result may come from the arena.

// Ints returns a zeroed scratch []int of length n.
func (c *Ctx) Ints(n int) []int {
	if c.arena == nil {
		return make([]int, n)
	}
	return c.arena.ints.get(n)
}

// PutInts recycles a slice obtained from Ints (or any dead []int).
func (c *Ctx) PutInts(s []int) {
	if c.arena != nil {
		c.arena.ints.put(s)
	}
}

// Int32s returns a zeroed scratch []int32 of length n.
func (c *Ctx) Int32s(n int) []int32 {
	if c.arena == nil {
		return make([]int32, n)
	}
	return c.arena.int32s.get(n)
}

// PutInt32s recycles a slice obtained from Int32s.
func (c *Ctx) PutInt32s(s []int32) {
	if c.arena != nil {
		c.arena.int32s.put(s)
	}
}

// Int64s returns a zeroed scratch []int64 of length n.
func (c *Ctx) Int64s(n int) []int64 {
	if c.arena == nil {
		return make([]int64, n)
	}
	return c.arena.int64s.get(n)
}

// PutInt64s recycles a slice obtained from Int64s.
func (c *Ctx) PutInt64s(s []int64) {
	if c.arena != nil {
		c.arena.int64s.put(s)
	}
}

// Bools returns a zeroed scratch []bool of length n.
func (c *Ctx) Bools(n int) []bool {
	if c.arena == nil {
		return make([]bool, n)
	}
	return c.arena.bools.get(n)
}

// PutBools recycles a slice obtained from Bools.
func (c *Ctx) PutBools(s []bool) {
	if c.arena != nil {
		c.arena.bools.put(s)
	}
}

// Uint32s returns a zeroed scratch []uint32 of length n.
func (c *Ctx) Uint32s(n int) []uint32 {
	if c.arena == nil {
		return make([]uint32, n)
	}
	return c.arena.uint32s.get(n)
}

// PutUint32s recycles a slice obtained from Uint32s.
func (c *Ctx) PutUint32s(s []uint32) {
	if c.arena != nil {
		c.arena.uint32s.put(s)
	}
}

// AtomicInt32s returns a zeroed scratch []atomic.Int32 of length n.
func (c *Ctx) AtomicInt32s(n int) []atomicInt32 {
	if c.arena == nil {
		return make([]atomicInt32, n)
	}
	return c.arena.atomics.get(n)
}

// PutAtomicInt32s recycles a slice obtained from AtomicInt32s.
func (c *Ctx) PutAtomicInt32s(s []atomicInt32) {
	if c.arena != nil {
		c.arena.atomics.put(s)
	}
}
