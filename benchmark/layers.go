package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/popmatch"
)

// stackSnap is a point-in-time read of the counters that per-layer metrics
// are deltas of, taken from the stack's existing surfaces: Server.Stats,
// WriteMetrics (/metrics) and Router.Snapshot.
type stackSnap struct {
	stats  map[string]int64   // serve Stats, summed over servers
	series map[string]float64 // /metrics series, summed over servers and the router
	shards []int64            // requests the router sent to each shard
	shed   int64
}

func snapStack(e env) stackSnap {
	s := stackSnap{stats: map[string]int64{}, series: map[string]float64{}}
	servers, rt := e.stack()
	var buf bytes.Buffer
	for _, srv := range servers {
		for k, v := range srv.Stats() {
			s.stats[k] += v
		}
		buf.Reset()
		_ = srv.WriteMetrics(&buf) // a bytes.Buffer write cannot fail
		addSeries(s.series, &buf)
	}
	if rt != nil {
		buf.Reset()
		_ = rt.WriteMetrics(&buf)
		addSeries(s.series, &buf)
		st := rt.Snapshot()
		for _, name := range rt.Shards() {
			s.shards = append(s.shards, st.PerShardRequests[name])
		}
		s.shed = st.Shed
	}
	return s
}

// addSeries adds the samples of a Prometheus text exposition to m, keyed by
// series name with labels.
func addSeries(m map[string]float64, exposition *bytes.Buffer) {
	sc := bufio.NewScanner(exposition)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] += v
		}
	}
}

// stackDelta is what happened between two snapshots.
type stackDelta struct{ a, b stackSnap }

func (d stackDelta) stat(k string) float64 { return float64(d.b.stats[k] - d.a.stats[k]) }

func (d stackDelta) series(k string) float64 { return d.b.series[k] - d.a.series[k] }

// histMeanMs is the mean of a seconds histogram over the delta, in ms.
func (d stackDelta) histMeanMs(name, labels string) float64 {
	return 1e3 * ratio(d.series(name+"_sum"+labels), d.series(name+"_count"+labels))
}

// seriesWithPrefix sums the deltas of every series whose name starts with p.
func (d stackDelta) seriesWithPrefix(p string) float64 {
	total := 0.0
	for k, v := range d.b.series {
		if strings.HasPrefix(k, p) {
			total += v - d.a.series[k]
		}
	}
	return total
}

// maxShare is the largest share of routed requests one shard received.
func (d stackDelta) maxShare() float64 {
	var total, top int64
	for i := range d.b.shards {
		n := d.b.shards[i] - d.a.shards[i]
		total += n
		top = max(top, n)
	}
	return ratio(float64(top), float64(total))
}

// costs are the process's CPU time, allocator and GC counters and the
// worker pool's scheduler counters: cumulative when read, per step after sub.
type costs struct {
	cpu                          time.Duration
	mallocs, bytes, gcs, pauseNs uint64
	parks, spinYields            int64
}

// readCosts reads them. probe is a Solver on the process-wide pool, so its
// SchedStats count every solve of the process, the servers' included.
func readCosts(probe *popmatch.Solver) costs {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	sched := probe.SchedStats()
	c := costs{
		mallocs: mem.Mallocs, bytes: mem.TotalAlloc, gcs: uint64(mem.NumGC), pauseNs: mem.PauseTotalNs,
		parks: sched.Parks, spinYields: sched.SpinYields,
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

func (c costs) sub(o costs) costs {
	return costs{c.cpu - o.cpu, c.mallocs - o.mallocs, c.bytes - o.bytes, c.gcs - o.gcs, c.pauseNs - o.pauseNs,
		c.parks - o.parks, c.spinYields - o.spinYields}
}

func (c costs) add(o costs) costs {
	return costs{c.cpu + o.cpu, c.mallocs + o.mallocs, c.bytes + o.bytes, c.gcs + o.gcs, c.pauseNs + o.pauseNs,
		c.parks + o.parks, c.spinYields + o.spinYields}
}

// heapSampler samples heap memory in use every 50 ms through
// runtime/metrics, which does not stop the world, and keeps the peak of each
// second.
type heapSampler struct {
	stop, done chan struct{}
	peaks      []float64 // MB
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func sampleHeap() *heapSampler {
	const every, window = 50 * time.Millisecond, time.Second
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(every)
		defer t.Stop()
		var peak uint64
		next := time.Now().Add(window)
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			if now := time.Now(); !now.Before(next) {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				peak, next = 0, now.Add(window)
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the per-second peaks.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.peaks
}
