package par

// Runner is the execution substrate every parallel primitive in this
// repository runs on: bulk-synchronous loops plus PRAM cost accounting.
//
// Two implementations exist:
//
//   - *Pool: raw loops, no tracing (Round is a no-op);
//   - *exec.Ctx: loops on a persistent pool with a tracer, plus
//     context.Context cancellation checked at every round boundary and a
//     scratch-buffer arena — the execution context the solvers use.
//
// Algorithms written against Runner are agnostic to which one they run on,
// which is how cancellation and tracing thread through every layer without
// per-call plumbing.
type Runner interface {
	// For runs fn(i) for every i in [0, n) as one parallel round.
	For(n int, fn func(i int))
	// ForGrain is For with an explicit minimum chunk size.
	ForGrain(n, grain int, fn func(i int))
	// Range hands contiguous chunks [lo, hi) of [0, n) to workers.
	Range(n, grain int, fn func(lo, hi int))
	// Workers reports the parallelism the runner schedules onto.
	Workers() int
	// Round records one bulk-synchronous step of `work` elementary ops.
	Round(work int)
}
