// Package par provides the bulk-synchronous parallel substrate used by every
// algorithm in this repository.
//
// The paper's algorithms are CREW/CRCW PRAM algorithms. We simulate the PRAM
// with a fixed pool of goroutine workers executing bulk-synchronous rounds: a
// parallel step maps a function over an index range, and the caller observes
// the step as a single synchronous operation. A Tracer records the number of
// rounds (the PRAM time, i.e. span) and the total work, so NC claims —
// polylogarithmic rounds with polynomial work — can be checked empirically,
// independent of wall-clock noise.
//
// Pools are persistent: worker goroutines are spawned lazily on the first
// parallel loop and then live until Close, so repeated solves on one pool pay
// no per-round spawn cost. The process-wide Shared pool serves callers that
// do not manage a pool themselves.
//
// The scheduler is chunk-atomic and self-scheduling: a round publishes its
// index range once, and workers (the caller included) claim grain-sized
// chunks with a single atomic increment until the range drains. Between
// rounds workers spin briefly before parking, so the back-to-back rounds the
// kernels issue are handed off without a park/wake cycle on either side.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MinGrain is the smallest chunk any kernel loop should hand to a worker.
// Below this, the atomic chunk claim and the cache traffic of touching a
// fresh range dominate the loop body; all per-kernel grain heuristics clamp
// to it rather than duplicating a magic constant.
const MinGrain = 1024

// breakEven is the shortest element-wise loop that Grain splits across
// workers; a shorter loop is one chunk, which the pool runs on the caller.
// BenchmarkRoundBreakEven (eight rounds of a pointer-doubling gather, the
// kernels' typical round) measured µs per round, ranges over 4 separate
// processes, 2 vCPUs, Go 1.24:
//
//	n      1 worker       2 workers
//	2^11   6–7            10–14
//	2^13   24–35          37–48
//	2^15   114–158        163–195
//	2^16   235–356        379–432
//	2^17   810–1,032      960–1,060
//	2^18   1,864–3,668    2,121–2,579
//	2^19   6,128–9,334    5,589–6,258
//
// Two workers lost below 2^17 (at 2^14 the medians tied), were not yet
// ahead at 2^18, and won in every process at 2^19. The bound must also stay
// at or below the 2·10⁵-applicant loops of BenchmarkStrictWorkers
// (popmatch), the scaling canary whose loops have to stay parallel. 2^17 is
// the largest power of two that meets both.
const breakEven = 1 << 17

// Grain returns the chunk size for an n-iteration loop on `workers` workers.
// A loop shorter than breakEven is one chunk: on the machines measured,
// helpers cost more in dispatch, barrier and cache traffic than they save
// there. A longer loop gets roughly four chunks per worker to smooth load
// imbalance, clamped below by MinGrain. This is the shared grain policy for
// every element-wise loop; it never returns less than MinGrain.
func Grain(n, workers int) int {
	if n < breakEven {
		return max(n, MinGrain)
	}
	if workers < 1 {
		workers = 1
	}
	return max(n/(4*workers), MinGrain)
}

// CombineWork is the PRAM work of the sequential step between the two
// rounds of a chunked scan or reduction over n elements: the block count
// at one worker. Charging it instead of the pool's own block count keeps a
// trace's work independent of the worker count, as its rounds are.
func CombineWork(n int) int {
	g := Grain(n, 1)
	return (n + g - 1) / g
}

// RowGrain returns the chunk size for a loop over `rows` rows of `words`
// 64-bit words each (bit-matrix and GF(2) sweeps). Chunks are sized so every
// chunk spans at least one 64-byte cache line of payload, keeping adjacent
// workers off each other's lines, with the usual ~4 chunks per worker above
// that floor.
func RowGrain(rows, words, workers int) int {
	if workers < 1 {
		workers = 1
	}
	g := rows / (4 * workers)
	min := 1
	if words > 0 {
		min = (8 + words - 1) / words // rows per 64-byte line (8 words)
	}
	if min < 1 {
		min = 1
	}
	if g < min {
		g = min
	}
	return g
}

// Scheduler tuning. The spin budgets are deliberately small: spinning is a
// latency optimization for rounds that arrive back-to-back (the common case
// inside a kernel), not a substitute for parking. All spins yield the
// processor, so an oversubscribed machine degrades to the parked behavior.
const (
	// workerSpins bounds how many scheduler yields an idle worker burns
	// polling for the next round before parking in a blocking receive.
	workerSpins = 64
	// recruitSpins bounds how many yields dispatch spends waiting for an
	// idle worker to appear after a failed handoff, per round.
	recruitSpins = 8
	// waitSpins bounds how many yields the caller spends polling for helper
	// completion before falling back to the parking wait.
	waitSpins = 64
)

// Pool executes bulk-synchronous parallel loops on a fixed number of
// persistent workers. The zero value is not usable; construct one with
// NewPool. A Pool is safe for concurrent use: independent loops from
// different goroutines share the same workers without interfering.
//
// Worker goroutines start lazily on the first loop large enough to
// parallelize and run until Close. A pool that is never Closed keeps its
// workers for the life of the process (this is intentional for the Shared
// pool; close short-lived pools when done with them).
type Pool struct {
	workers int
	start   sync.Once
	rounds  chan *round
	done    chan struct{}
	closed  atomic.Bool

	// Scheduler observability. parks/parkNs count blocking waits in the
	// worker loop (and the time spent parked); spinYields counts the
	// polling yields between rounds. Workers accumulate spin yields in a
	// goroutine-local counter and flush on state transitions, so the hot
	// spin path never touches a shared cache line.
	parks      atomic.Int64
	parkNs     atomic.Int64
	spinYields atomic.Int64
}

// SchedStats is a snapshot of the pool's scheduler counters: how often
// workers fell off the spin path into a parked (blocking) wait, the total
// time spent parked, and how many polling yields the spin path burned. Park
// time on an idle pool measures idleness, not contention; the interesting
// signal is parks climbing while solves are in flight (rounds arriving
// slower than the spin budget covers).
type SchedStats struct {
	Parks      int64 // blocking waits entered by workers
	ParkNs     int64 // total ns spent in those waits
	SpinYields int64 // scheduler yields burned polling between rounds
}

// SchedStats reports the pool's accumulated scheduler counters.
func (p *Pool) SchedStats() SchedStats {
	return SchedStats{
		Parks:      p.parks.Load(),
		ParkNs:     p.parkNs.Load(),
		SpinYields: p.spinYields.Load(),
	}
}

// round is one bulk-synchronous parallel step: workers (and the caller)
// atomically claim grain-sized chunks of [0, n) until none remain. Exactly
// one of fn (chunk form) and fnIdx (per-index form) is set; carrying both
// lets For loops run without wrapping the index function in a per-call
// closure. Completed rounds are recycled through roundPool so a parallel
// step performs no allocation in the steady state.
//
// The claim cursor and the completion counter are the only fields written
// during a round; each gets its own cache line so claim traffic does not
// invalidate the read-mostly header (n/grain/chunks/fn) or the completion
// line the caller polls.
type round struct {
	n, grain, chunks int
	fn               func(lo, hi int)
	fnIdx            func(i int)
	tr               *Tracer // non-nil on traced rounds: barrier wait is measured
	_                [64]byte
	next             atomic.Int64
	_                [56]byte
	running          atomic.Int64
	_                [56]byte
	wg               sync.WaitGroup
}

// roundPool recycles round descriptors. A round is returned only after the
// completion barrier has observed every recruited worker's exit, so no
// goroutine holds a reference when the descriptor is reused.
var roundPool = sync.Pool{New: func() any { return new(round) }}

func (r *round) run() {
	for {
		c := int(r.next.Add(1)) - 1
		if c >= r.chunks {
			return
		}
		lo := c * r.grain
		hi := lo + r.grain
		if hi > r.n {
			hi = r.n
		}
		if r.fnIdx != nil {
			for i := lo; i < hi; i++ {
				r.fnIdx(i)
			}
		} else {
			r.fn(lo, hi)
		}
	}
}

// join is a recruited worker's participation in a round. wg.Done precedes
// the running decrement, so a caller that observes running == 0 on the spin
// path is guaranteed the WaitGroup is settled and the descriptor safe to
// recycle without calling Wait.
func (r *round) join() {
	r.run()
	r.wg.Done()
	r.running.Add(-1)
}

// NewPool returns a pool with the given number of workers. If workers <= 0,
// runtime.GOMAXPROCS(0) workers are used.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Sequential returns a single-worker pool. Useful as a baseline in speedup
// experiments and to make tests deterministic under the race detector.
func Sequential() *Pool { return &Pool{workers: 1} }

var (
	sharedOnce sync.Once
	sharedPool *Pool

	sharedSizedMu sync.Mutex
	sharedSized   map[int]*Pool
)

// Shared returns the process-wide pool with runtime.GOMAXPROCS(0) workers.
// It is the default execution substrate for callers that do not supply their
// own pool and is never closed.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// SharedSized returns a process-wide persistent pool with exactly `workers`
// workers, creating it on first request. Like Shared it is never closed, so
// one-shot API wrappers can honor an explicit worker count without leaking a
// fresh pool per call; the population is bounded by the number of distinct
// sizes ever requested. workers <= 0 returns Shared().
func SharedSized(workers int) *Pool {
	if workers <= 0 {
		return Shared()
	}
	sharedSizedMu.Lock()
	defer sharedSizedMu.Unlock()
	if sharedSized == nil {
		sharedSized = make(map[int]*Pool)
	}
	p, ok := sharedSized[workers]
	if !ok {
		p = NewPool(workers)
		sharedSized[workers] = p
	}
	return p
}

// Workers reports the number of workers the pool schedules onto.
func (p *Pool) Workers() int { return p.workers }

// Round is a no-op: a bare Pool records no PRAM costs. Runners that trace
// (exec.Ctx) wrap a pool with a tracer.
func (p *Pool) Round(int) {}

// For runs fn(i) for every i in [0, n) in parallel. It corresponds to one
// PRAM step ("for each x in parallel do"). fn must be safe to call
// concurrently for distinct i; the pool guarantees each index is processed
// exactly once. For blocks until all iterations complete. Chunks are sized
// by Grain, so a loop shorter than its break-even runs on the caller.
func (p *Pool) For(n int, fn func(i int)) {
	p.ForGrain(n, Grain(n, p.workers), fn)
}

// ForGrain is For with an explicit grain: chunks of at least `grain`
// consecutive indices are handed to workers. A small grain increases
// scheduling overhead; a large grain reduces available parallelism.
//
// Loops too small to parallelize (or on a single-worker pool) run directly
// on the calling goroutine without touching the round machinery, so fn need
// not escape and a prebound loop body executes allocation-free.
func (p *Pool) ForGrain(n, grain int, fn func(i int)) {
	p.ForGrainTr(n, grain, fn, nil)
}

// ForGrainTr is ForGrain with a tracer riding the round: the time the caller
// spends in the completion barrier waiting for recruited helpers is
// accumulated into tr (AddBarrierWait). A nil tr is exactly ForGrain — the
// untraced dispatch path takes no timestamps.
func (p *Pool) ForGrainTr(n, grain int, fn func(i int), tr *Tracer) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p.workers == 1 || n <= grain {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := roundPool.Get().(*round)
	r.n, r.grain, r.chunks = n, grain, (n+grain-1)/grain
	r.fn, r.fnIdx = nil, fn
	r.tr = tr
	p.dispatch(r)
}

// Range partitions [0, n) into contiguous chunks of at least `grain` indices
// and calls fn(lo, hi) for each chunk in parallel. It is the loop primitive
// underlying For; use it directly when per-chunk setup (local accumulators,
// scratch buffers) matters.
//
// The caller always participates in chunk processing and idle workers are
// recruited with non-blocking handoffs, so Range never deadlocks — including
// when fn itself calls back into the same pool (nested parallel loops simply
// run on whoever is free, ultimately the caller itself).
func (p *Pool) Range(n, grain int, fn func(lo, hi int)) {
	p.RangeTr(n, grain, fn, nil)
}

// RangeTr is Range with a tracer riding the round; see ForGrainTr.
func (p *Pool) RangeTr(n, grain int, fn func(lo, hi int), tr *Tracer) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p.workers == 1 || n <= grain {
		fn(0, n)
		return
	}
	r := roundPool.Get().(*round)
	r.n, r.grain, r.chunks = n, grain, (n+grain-1)/grain
	r.fn, r.fnIdx = fn, nil
	r.tr = tr
	p.dispatch(r)
}

// dispatch runs a prepared round on the pool and recycles the descriptor.
//
// Recruitment is a bounded sequence of non-blocking rendezvous sends: a send
// succeeds only if a worker is receiving right now, so every recruited
// helper is guaranteed to run the round and signal completion. A failed send
// no longer abandons recruitment for the whole round (the old behavior,
// which serialized every round issued while workers were between their
// receive and their park); instead dispatch yields and retries a bounded
// number of times, stopping early if the recruited helpers have already
// drained the round. Recruitment never blocks, preserving the no-deadlock
// guarantee for nested loops.
func (p *Pool) dispatch(r *round) {
	p.start.Do(p.startWorkers)
	// Recruit at most workers-1 helpers (the caller is a participant too),
	// and no more than one per chunk beyond the caller's.
	helpers := p.workers - 1
	if c := r.chunks - 1; c < helpers {
		helpers = c
	}
	misses := 0
	for recruited := 0; recruited < helpers; {
		r.wg.Add(1)
		r.running.Add(1)
		select {
		case p.rounds <- r:
			recruited++
			misses = 0
			continue
		default:
			r.wg.Add(-1)
			r.running.Add(-1)
		}
		if recruited > 0 && int(r.next.Load()) >= r.chunks {
			break // already drained; a late helper would find nothing
		}
		if misses++; misses > recruitSpins {
			break
		}
		runtime.Gosched()
	}
	r.run() // the caller claims chunks like any worker
	// Completion barrier: poll briefly for the last helper before parking.
	// join() orders wg.Done before the running decrement, so running == 0
	// proves the WaitGroup is settled.
	if r.running.Load() != 0 {
		var t0 time.Time
		if r.tr != nil {
			t0 = time.Now()
		}
		settled := false
		for spin := 0; spin < waitSpins; spin++ {
			runtime.Gosched()
			if r.running.Load() == 0 {
				settled = true
				break
			}
		}
		if !settled {
			r.wg.Wait()
		}
		if r.tr != nil {
			r.tr.AddBarrierWait(time.Since(t0).Nanoseconds())
		}
	}
	r.fn, r.fnIdx, r.tr = nil, nil, nil
	r.next.Store(0)
	roundPool.Put(r)
}

func (p *Pool) startWorkers() {
	p.rounds = make(chan *round)
	p.done = make(chan struct{})
	if p.closed.Load() {
		return // Close on a never-used pool: create channels, spawn nobody
	}
	for w := 0; w < p.workers-1; w++ {
		go p.worker()
	}
}

// worker runs rounds until Close. Between rounds it polls the handoff
// channel for a bounded number of yields before parking: kernels issue
// rounds back-to-back, and a parked worker cannot be hit by dispatch's
// non-blocking send, so staying briefly in a receivable state is what makes
// consecutive rounds recruit the full pool.
func (p *Pool) worker() {
	idle := 0
	spun := int64(0) // yields since the last flush; flushed off the hot path
	for {
		select {
		case r := <-p.rounds:
			if spun != 0 {
				p.spinYields.Add(spun)
				spun = 0
			}
			r.join()
			idle = 0
			continue
		case <-p.done:
			return
		default:
		}
		if idle < workerSpins {
			idle++
			spun++
			runtime.Gosched()
			continue
		}
		if spun != 0 {
			p.spinYields.Add(spun)
			spun = 0
		}
		p.parks.Add(1)
		t0 := time.Now()
		select {
		case r := <-p.rounds:
			p.parkNs.Add(time.Since(t0).Nanoseconds())
			r.join()
			idle = 0
		case <-p.done:
			p.parkNs.Add(time.Since(t0).Nanoseconds())
			return
		}
	}
}

// Close stops the pool's worker goroutines. It is idempotent and safe to
// call on a pool whose workers never started. The pool must not be used for
// further loops after Close (in-flight loops must have completed).
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	// Ensure start.Do can no longer race with a concurrent first use; Close
	// requires quiescence, so running it here at worst creates the channels.
	p.start.Do(p.startWorkers)
	close(p.done)
}
