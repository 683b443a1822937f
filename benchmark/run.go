package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/popmatch"
)

// parts is how many processes an untraced run is spread over, one after
// another. The kernel's worker pool settles, once per process, into one of
// a few scheduling modes whose solve times differ by a quarter or more (the
// traced run shows it as par.parks_per_op); pooling the samples of several
// processes keeps that one draw from deciding a run's numbers.
const parts = 3

// Op index bases of a process's steps: every step, and every part of a run,
// draws distinct ops and a distinct arrival schedule from the seed.
const (
	warmBase  = 0
	firstBase = 1 << 32
	laterBase = 2 << 32
	lastBase  = 3 << 32
	partShift = 40
)

// run is one process's share of a benchmark run: the workload set up
// o.setups times, the last set-up kept and warmed.
type run struct {
	w     *workload
	o     options
	e     env
	tr    *tracer
	probe *popmatch.Solver // on the process-wide pool, for readCosts
	base  int64            // added to every op index of this process
	setup []float64        // seconds per set-up

	correct           bool
	attempted, failed int64
}

func start(ctx context.Context, w *workload, o options, k int) (*run, error) {
	r := &run{w: w, o: o, base: int64(k) << partShift, correct: true}
	if o.trace {
		r.tr = newTracer()
	}
	for range o.setups {
		if r.e != nil {
			r.e.close()
		}
		t0 := time.Now()
		e, err := w.setup(ctx, o, r.tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.e = e
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	r.probe = popmatch.NewSolver(popmatch.Options{})
	r.tally(r.step(ctx, warmBase, o.warmup), false)
	return r, nil
}

func (r *run) close() {
	r.probe.Close()
	r.e.close()
}

// step runs the workload's nominal load for dur.
func (r *run) step(ctx context.Context, base int64, dur time.Duration) phase {
	if r.w.rate == 0 {
		return closedLoop(ctx, r.e.op, r.tr, r.base+base, 1, dur)
	}
	return openLoop(ctx, r.e.op, r.tr, r.o.seed, r.base+base, r.w.rate, dur)
}

func (r *run) tally(p phase, measured bool) {
	if p.incorrect > 0 {
		r.correct = false
	}
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d ops failed; first: %v\n", p.failed, p.attempted, p.firstErr)
	}
	if measured {
		r.attempted += p.attempted
		r.failed += p.failed
	}
}

// finish holds the measured steps to the workload's cache rule and runs the
// end-of-run correctness check.
func (r *run) finish(ctx context.Context, measured stackDelta) error {
	if err := checkHits(r.w.hits, measured); err != nil {
		return err
	}
	if err := r.e.finish(ctx); err != nil {
		var bad *incorrectError
		if !errors.As(err, &bad) {
			return fmt.Errorf("final check: %w", err)
		}
		r.correct = false
	}
	return nil
}

// part is what one process measured of an untraced run.
type part struct {
	Setup     []float64 `json:"setup_s"`
	Latency   []float64 `json:"latency_ms"` // nominal step, successful ops
	Completed int       `json:"completed"`  // throughput step
	Seconds   float64   `json:"seconds"`    // throughput step
	HeapPeaks []float64 `json:"heap_peaks_mb"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Correct   bool      `json:"correct"`
}

// measurePart measures part k of an untraced run for o.measure. An
// open-loop workload spends half of it at its nominal rate, which gives the
// latencies, and half as a closed loop of runtime.NumCPU() callers, which
// gives the throughput; a closed-loop workload spends all of it as its one
// caller.
func measurePart(ctx context.Context, w *workload, o options, k int) (*part, error) {
	r, err := start(ctx, w, o, k)
	if err != nil {
		return nil, err
	}
	defer r.close()
	before := snapStack(r.e)
	heap := sampleHeap()
	var nominal, saturated phase
	if w.rate == 0 {
		nominal = r.step(ctx, firstBase, o.measure)
		saturated = nominal
	} else {
		nominal = r.step(ctx, firstBase, o.measure/2)
		saturated = closedLoop(ctx, r.e.op, nil, r.base+laterBase, runtime.NumCPU(), o.measure/2)
		r.tally(saturated, true)
	}
	r.tally(nominal, true)
	peaks := heap.finish()
	if err := r.finish(ctx, stackDelta{before, snapStack(r.e)}); err != nil {
		return nil, err
	}
	// Latency counts from each op's due time, so a late generator inflates
	// it; when the typical op is sent late by half its latency, the numbers
	// say more about the client than the system. (Medians: a p99 of one
	// part's sample is too unsteady to fail a run on.)
	if lag, p50 := quantile(nominal.lag, 0.5), quantile(nominal.lat, 0.5); o.strict && lag > p50/2 {
		return nil, fmt.Errorf("load generator ran late: dispatch lag p50 %.3f ms against latency p50 %.3f ms", lag, p50)
	}
	return &part{
		Setup:     r.setup,
		Latency:   nominal.lat,
		Completed: len(saturated.lat),
		Seconds:   saturated.elapsed.Seconds(),
		HeapPeaks: peaks,
		Attempted: r.attempted,
		Failed:    r.failed,
		Correct:   r.correct,
	}, nil
}

// runParts measures an untraced run as parts processes of this program, one
// after another, each measuring its share of o.measure.
func runParts(ctx context.Context, w *workload, o options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ps []*part
	for k := 1; k <= parts; k++ {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		cmd := exec.CommandContext(pctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat((o.measure/parts).Seconds(), 'f', -1, 64), "--part", strconv.Itoa(k))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", k, err)
		}
		var p part
		if err := json.Unmarshal(lastLine(out), &p); err != nil {
			return nil, fmt.Errorf("part %d: %w", k, err)
		}
		ps = append(ps, &p)
	}
	return pool(ps, o)
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// pool turns the parts of an untraced run into its end-to-end metrics.
func pool(ps []*part, o options) (*report, error) {
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	var setup, lat, peaks []float64
	var completed, seconds float64
	for _, p := range ps {
		setup = append(setup, p.Setup...)
		lat = append(lat, p.Latency...)
		peaks = append(peaks, p.HeapPeaks...)
		completed += float64(p.Completed)
		seconds += p.Seconds
		rep.Attempted += p.Attempted
		rep.Failed += p.Failed
		rep.Correct = rep.Correct && p.Correct
	}
	p50, err := o.pct(lat, 0.5)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"setup_s":          quantile(setup, 0.5),
		"latency_p50_ms":   p50,
		"throughput_ops_s": ratio(completed, seconds),
		// The median of per-second peaks: the single highest sample would
		// mostly report where a GC cycle happened to fall.
		"peak_heap_mb": quantile(peaks, 0.5),
	}
	for _, d := range endToEnd {
		rep.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return rep, nil
}

// runTraced measures the per-layer metrics in one process: the nominal
// load runs traced for three quarters of o.measure, between two untraced
// eighths. The per-layer metrics come from the traced step, the costs per
// op from the untraced ones, and the tracing overhead from the two, which
// bracket the traced step so that drift over the run does not pass for it.
func runTraced(ctx context.Context, w *workload, o options) (*report, error) {
	r, err := start(ctx, w, o, 0)
	if err != nil {
		return nil, err
	}
	defer r.close()
	e, tr := r.e, r.tr
	untraced := func(base int64) (phase, costs) {
		c0 := readCosts(r.probe)
		p := r.step(ctx, base, o.measure/8)
		r.tally(p, true)
		return p, readCosts(r.probe).sub(c0)
	}
	s0 := snapStack(e)
	pa, ca := untraced(firstBase)
	s1 := snapStack(e)
	tr.on.Store(true)
	tp := r.step(ctx, laterBase, o.measure*3/4)
	tr.on.Store(false)
	r.tally(tp, true)
	s2 := snapStack(e)
	pb, cb := untraced(lastBase)
	plainLat, c := append(pa.lat, pb.lat...), ca.add(cb)
	ops := float64(pa.attempted + pb.attempted)

	var firstErr error
	pct := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0 // the workload does not reach this layer
		}
		v, err := o.pct(xs, q)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	spans := aggregate(tr.spans)
	get := func(name string) *layerAgg {
		if a := spans[name]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	meanDur := func(name string) float64 { a := get(name); return ratio(a.dur, a.count()) }
	meanSelf := func(name string) float64 { a := get(name); return ratio(a.own, a.count()) }
	td := stackDelta{s1, s2}
	k := tr.kernel
	kernelMean := func(phase string) float64 { return ratio(float64(k.phases[phase])/1e6, float64(k.solves)) }

	m := map[string]float64{
		"bench.latency_p99_ms":   pct(tp.lat, 0.99),
		"bench.lag_ms_p99":       pct(tp.lag, 0.99),
		"bench.outstanding_max":  float64(tp.outstandingMax),
		"bench.conn_wait_ms_p50": pct(get("bench.conn_wait").durs, 0.5),
		"bench.conn_wait_ms_p99": pct(get("bench.conn_wait").durs, 0.99),
		"bench.ttfb_ms_p50":      pct(tr.ttfb, 0.5),
		"bench.body_ms_p50":      pct(tr.body, 0.5),
		"http.transport_ms_mean": meanSelf("http.exchange"),

		"serve.handler_solve_ms_mean":         meanDur("serve.handler_solve"),
		"serve.handler_solve_ms_p99":          pct(get("serve.handler_solve").durs, 0.99),
		"serve.handler_mutate_ms_mean":        meanDur("serve.handler_mutate"),
		"serve.handler_session_solve_ms_mean": meanDur("serve.handler_session_solve"),
		"serve.handler_upload_ms_mean":        meanDur("serve.handler_upload"),
		"serve.handler_evict_ms_mean":         meanDur("serve.handler_evict"),
		"serve.request_ms_mean":               td.histMeanMs("popserved_request_duration_seconds", `{route="solve"}`),
		"serve.session_request_ms_mean":       td.histMeanMs("popserved_request_duration_seconds", `{route="session_solve"}`),
		"serve.kernel_ms_mean":                td.histMeanMs("popserved_solve_duration_seconds", ""),
		"serve.flush_ms_mean":                 td.histMeanMs("popserved_batch_flush_duration_seconds", ""),
		"serve.batch_mean":                    ratio(td.stat("batched_requests"), td.stat("batches")),
		"serve.coalesced_ratio":               ratio(td.stat("coalesced"), td.stat("batched_requests")),
		"serve.solves_per_request":            ratio(td.stat("solves")+td.stat("session_solves"), td.stat("requests")),
		"serve.rejected":                      td.stat("rejected"),
		"serve.cache_hit_ratio":               ratio(td.stat("cache_hits"), td.stat("requests")),
		"serve.warm_ratio":                    ratio(td.stat("session_warm"), td.stat("session_solves")),

		"shard.handler_ms_mean":  meanDur("shard.handler"),
		"shard.proxy_ms_mean":    meanSelf("shard.handler"),
		"shard.upstream_ms_mean": td.histMeanMs("poprouter_proxy_duration_seconds", ""),
		"shard.max_share":        td.maxShare(),
		"shard.shed":             float64(td.b.shed - td.a.shed),
		"shard.errors":           td.seriesWithPrefix("poprouter_shard_errors_total"),

		"popmatch.popular_ms_p50": pct(get("popmatch.popular").durs, 0.5),
		"popmatch.maxcard_ms_p50": pct(get("popmatch.maxcard").durs, 0.5),
		"stable.next_ms_p50":      pct(get("stable.next").durs, 0.5),

		"core.validate_ms_mean":      kernelMean("validate"),
		"core.build_reduced_ms_mean": kernelMean("build-reduced"),
		"core.peel_ms_mean":          kernelMean("peel"),
		"core.promote_ms_mean":       kernelMean("promote"),
		"core.other_ms_mean":         kernelMean("other"),
		"core.splice_ms_mean":        kernelMean("splice"),
		"par.rounds_per_solve":       ratio(float64(k.rounds), float64(k.solves)),
		"par.work_per_solve":         ratio(float64(k.work), float64(k.solves)),
		"par.barrier_wait_share":     ratio(float64(k.barrierNs), float64(k.durationNs)),
		"par.parks_per_op":           ratio(float64(c.parks), ops),
		"par.spin_yields_per_op":     ratio(float64(c.spinYields), ops),

		"runtime.cpu_ms_per_op": ratio(ms(c.cpu), ops),
		"runtime.allocs_per_op": ratio(float64(c.mallocs), ops),
		"runtime.bytes_per_op":  ratio(float64(c.bytes), ops),
		"runtime.gc_cycles":     float64(c.gcs),
		"runtime.gc_pause_ms":   float64(c.pauseNs) / 1e6,
		"trace.overhead_p50":    ratio(quantile(tp.lat, 0.5), quantile(plainLat, 0.5)) - 1,
		"trace.explained_share": 1 - ratio(get("bench.op").own, get("bench.op").dur),
	}
	// The handler's time beyond the server's own request timer is JSON
	// decoding, encoding and writing.
	solve, session := get("serve.handler_solve"), get("serve.handler_session_solve")
	serverMs := 1e3 * (td.series(`popserved_request_duration_seconds_sum{route="solve"}`) +
		td.series(`popserved_request_duration_seconds_sum{route="session_solve"}`))
	m["serve.codec_ms_mean"] = ratio(solve.dur+session.dur-serverMs, solve.count()+session.count())
	// With every request a miss, request time beyond the batch flush is
	// queueing, linger and handoff.
	if td.series("popserved_batch_flush_duration_seconds_count") > 0 {
		m["serve.queue_ms_mean"] = m["serve.request_ms_mean"] - m["serve.flush_ms_mean"]
	}
	if s, ok := e.(*sessionEnv); ok {
		decode, fp, err := s.replay()
		if err != nil {
			return nil, err
		}
		m["onesided.decode_ms_p50"] = pct(decode, 0.5)
		m["onesided.fingerprint_ms_p50"] = pct(fp, 0.5)
		if up := get("serve.handler_upload"); up.count() > 0 {
			m["serve.register_ms_mean"] = meanDur("serve.handler_upload") - mean(decode) - mean(fp)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := r.finish(ctx, stackDelta{s0, snapStack(e)}); err != nil {
		return nil, err
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, tr.spans); err != nil {
			return nil, err
		}
	}
	rep := &report{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		rep.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return rep, nil
}

// checkHits holds the workload to its cache rule over the measured steps.
func checkHits(rule hitRule, d stackDelta) error {
	hits, reqs := d.stat("cache_hits"), d.stat("requests")
	switch {
	case rule == noHits && hits != 0:
		return fmt.Errorf("%v of %v requests hit the result cache, which this workload must bypass", hits, reqs)
	case rule == allHits && hits != reqs:
		return fmt.Errorf("only %v of %v requests hit the result cache", hits, reqs)
	}
	return nil
}
