package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc runs operation i of a workload. The op's content is a function of
// the seed and i alone, never of scheduling; ot is nil unless the op is
// traced.
type opFunc func(ctx context.Context, i int64, ot *opTrace) error

// opRand is a splitmix64 stream seeded by (seed, op index), so that an op's
// content does not depend on which goroutine runs it or when.
type opRand struct{ s uint64 }

func newOpRand(seed, i int64) opRand {
	r := opRand{s: uint64(seed)}
	r.s = r.next() ^ uint64(i)
	return r
}

func (r *opRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *opRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *opRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// arrivals returns the due offsets of a Poisson arrival process of the given
// rate (ops/s) over dur, drawn from seed.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// incorrectError marks an op whose result was wrong, as opposed to one that
// failed to produce a result. Either counts as failed; only this one makes
// the run incorrect.
type incorrectError struct{ msg string }

func (e *incorrectError) Error() string { return "incorrect result: " + e.msg }

func incorrect(format string, args ...any) error {
	return &incorrectError{msg: fmt.Sprintf(format, args...)}
}

// phase is what one load step measured. Latencies are in milliseconds from
// each op's due time (open loop) or start (closed loop) to its completion.
type phase struct {
	lat            []float64 // successful ops only
	lag            []float64 // open loop: dispatch minus due time
	attempted      int64
	failed         int64
	incorrect      int64
	firstErr       error
	outstandingMax int64
	elapsed        time.Duration
}

func (p *phase) record(lat float64, err error) {
	p.attempted++
	if err == nil {
		p.lat = append(p.lat, lat)
		return
	}
	p.failed++
	var bad *incorrectError
	if errors.As(err, &bad) {
		p.incorrect++
	}
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// throughput is completed ops per second of the step's wall time.
func (p *phase) throughput() float64 {
	return float64(len(p.lat)) / p.elapsed.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// opTimeout fails an op that has not completed a second after it was due,
// over a hundred times the median latency of any workload.
const opTimeout = time.Second

// openLoop issues ops on a Poisson schedule of the given rate for dur,
// whether or not earlier ops have completed, and times each op from its due
// time: a stall is charged to every op that came due during it. Op indices
// are base, base+1, ...
func openLoop(ctx context.Context, f opFunc, tr *tracer, seed, base int64, rate float64, dur time.Duration) phase {
	offs := arrivals(seed^base, rate, dur)
	lat := make([]float64, len(offs))
	lag := make([]float64, len(offs))
	errs := make([]error, len(offs))
	var (
		wg               sync.WaitGroup
		inflight, maxOut atomic.Int64
	)
	start := time.Now()
	for k, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lag[k] = ms(time.Since(due))
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for m := maxOut.Load(); n > m && !maxOut.CompareAndSwap(m, n); m = maxOut.Load() {
			}
			octx, cancel := context.WithDeadline(ctx, due.Add(opTimeout))
			defer cancel()
			i := base + int64(k)
			ot := tr.begin(i, due)
			errs[k] = f(octx, i, ot)
			done := time.Now()
			lat[k] = ms(done.Sub(due))
			tr.end(ot, due, done)
		}()
	}
	wg.Wait()
	p := phase{lag: lag, outstandingMax: maxOut.Load(), elapsed: time.Since(start)}
	for k := range offs {
		p.record(lat[k], errs[k])
	}
	return p
}

// closedLoop runs callers goroutines that each issue their next op as soon as
// the previous one completes, until dur has passed. Op indices are drawn in
// order from base by whichever caller is free.
func closedLoop(ctx context.Context, f opFunc, tr *tracer, base int64, callers int, dur time.Duration) phase {
	type sample struct {
		lat float64
		err error
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	per := make([][]sample, callers)
	start := time.Now()
	deadline := start.Add(dur)
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := base + next.Add(1) - 1
				t0 := time.Now()
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				ot := tr.begin(i, t0)
				err := f(octx, i, ot)
				cancel()
				t1 := time.Now()
				tr.end(ot, t0, t1)
				per[c] = append(per[c], sample{ms(t1.Sub(t0)), err})
			}
		}()
	}
	wg.Wait()
	p := phase{outstandingMax: int64(callers), elapsed: time.Since(start)}
	for _, ss := range per {
		for _, s := range ss {
			p.record(s.lat, s.err)
		}
	}
	return p
}

// quantile is the nearest-rank q-quantile of xs, which it sorts in place; 0
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), q)-1]
}

func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(n, r))
}

// percentile is quantile for a reported timing: it refuses a sample with
// fewer than ten values beyond the quantile, so p99 needs 1000 samples and
// p50 needs 20.
func percentile(xs []float64, q float64) (float64, error) {
	if n := len(xs); n == 0 || n-nearestRank(n, q) < 10 {
		return 0, fmt.Errorf("p%g needs ten samples beyond it, got %d samples in all", 100*q, n)
	}
	return quantile(xs, q), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
