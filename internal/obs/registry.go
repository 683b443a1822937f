// Package obs is the repository's observability substrate: a dependency-free
// metrics registry with atomic counters, callback gauges and lock-free
// log-scale histograms, plus Prometheus text-format exposition.
//
// The package exists so every layer — the par scheduler, the core engine, the
// popmatch solver and the serve daemon — records costs into one shared
// vocabulary instead of growing private counter structs per package. Metrics
// are plain values (a Counter is an embeddable struct field, a Histogram a
// fixed-size array of atomics); the Registry only names them for exposition,
// so the hot paths never touch a map or a lock.
//
// Series names follow Prometheus conventions and may carry a literal label
// set: registering "popserved_mode_solves_total{mode=\"popular\"}" and
// "...{mode=\"ties\"}" produces two series in one family, with HELP/TYPE
// emitted once for the family. Histograms are exported with cumulative
// power-of-two le bounds scaled by a per-histogram factor (1e-9 turns
// nanosecond observations into seconds).
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic (or max-tracking) atomic int64. The zero value is
// ready to use, so it embeds directly as a struct field; registration with a
// Registry is optional and only affects exposition.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Max raises the counter to n if n exceeds the current value (CAS loop).
// Used for high-water marks like the largest batch dispatched.
func (c *Counter) Max(n int64) {
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// kind discriminates the exposition shape of a registered series.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series.
type metric struct {
	name    string // full series name, possibly with a literal {label="..."} set
	help    string
	kind    kind
	counter *Counter
	gauge   func() int64
	hist    *Histogram
	scale   float64 // histogram/gauge export multiplier (0 = 1)
}

// Registry names metrics for exposition. The zero value is ready to use.
// Registration takes a mutex; reads of the metric values themselves are the
// owning types' atomic loads, so WritePrometheus never blocks a hot path.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]int
}

// register appends m, panicking on duplicate names: metric names are
// compile-time-style identifiers and a collision is a programming error.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]int)
	}
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.RegisterCounter(name, help, c)
	return c
}

// RegisterCounter registers an externally-owned counter (typically a struct
// field) under name. The counter keeps working if never registered.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(metric{name: name, help: help, kind: kindCounter, counter: c})
}

// Gauge registers a callback gauge: fn is invoked at exposition time.
// fn must be safe for concurrent use.
func (r *Registry) Gauge(name, help string, fn func() int64) {
	r.register(metric{name: name, help: help, kind: kindGauge, gauge: fn})
}

// Histogram registers and returns a new histogram series. scale multiplies
// raw observed values (and bucket bounds) at exposition: observe nanoseconds
// and pass 1e-9 to export seconds. scale <= 0 means 1.
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	h := new(Histogram)
	r.RegisterHistogram(name, help, scale, h)
	return h
}

// RegisterHistogram registers an externally-owned histogram under name.
func (r *Registry) RegisterHistogram(name, help string, scale float64, h *Histogram) {
	r.register(metric{name: name, help: help, kind: kindHistogram, hist: h, scale: scale})
}

// splitName separates a series name into its base metric name and its literal
// label block ("{...}" including braces, or "").
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// withLabel appends `extra` (a single label="value" pair) to a label block.
func withLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders an exposition value; integral values print without an
// exponent so counter series stay byte-stable.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered series in Prometheus text
// exposition format, in registration order, with HELP/TYPE emitted once per
// metric family (the name before any label block).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	var b strings.Builder
	seen := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		base, labels := splitName(m.name)
		family := base
		typ := "counter"
		switch m.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if !seen[family] {
			seen[family] = true
			fmt.Fprintf(&b, "# HELP %s %s\n", family, m.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, typ)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Load())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.gauge())
		case kindHistogram:
			scale := m.scale
			if scale <= 0 {
				scale = 1
			}
			snap := m.hist.Snapshot()
			cum := int64(0)
			for i := 0; i < NumBuckets; i++ {
				cum += snap.Counts[i]
				if snap.Counts[i] == 0 && i != NumBuckets-1 {
					continue // cumulative buckets: skip empty interior bounds
				}
				le := "+Inf"
				if i < NumBuckets-1 {
					le = formatFloat(float64(BucketUpper(i)) * scale)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", base, withLabel(labels, `le="`+le+`"`), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", base, labels, formatFloat(float64(snap.Sum)*scale))
			fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
