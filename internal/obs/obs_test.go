package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the bucket mapping at every power-of-two edge:
// bucket i's inclusive upper bound is 2^i, so v = 2^i lands in bucket i and
// v = 2^i + 1 in bucket i+1.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 2}, {4, 2}, {5, 3},
		{8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{1 << 38, 38}, {1<<38 + 1, 39},
		{1 << 39, 39}, // clamps into the overflow bucket
		{math.MaxInt64, 39},
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.v)
		s := h.Snapshot()
		got := -1
		for i, c := range s.Counts {
			if c != 0 {
				got = i
			}
		}
		if got != tc.want {
			t.Errorf("Observe(%d): bucket %d, want %d", tc.v, got, tc.want)
		}
	}
	for i := 0; i < NumBuckets-1; i++ {
		if got := bucketOf(BucketUpper(i)); got != i {
			t.Errorf("bucketOf(BucketUpper(%d)=%d) = %d", i, BucketUpper(i), got)
		}
	}
}

// TestHistogramHammer checks the lock-free histogram under the race
// detector: N goroutines each observe M values; the merged final snapshot
// must account for every observation exactly.
func TestHistogramHammer(t *testing.T) {
	const (
		goroutines = 8
		observes   = 5000
	)
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < observes; i++ {
				h.Observe(int64(g*observes + i))
			}
		}(g)
	}
	wg.Wait()

	s := h.Snapshot()
	if want := int64(goroutines * observes); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	// Sum of 0..NM-1, minus nothing (all non-negative).
	nm := int64(goroutines * observes)
	if want := nm * (nm - 1) / 2; s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}

	// Merging per-goroutine histograms must be exact too.
	var parts [goroutines]Histogram
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < observes; i++ {
				parts[g].Observe(int64(g*observes + i))
			}
		}(g)
	}
	wg.Wait()
	var merged HistSnapshot
	for g := range parts {
		merged.Merge(parts[g].Snapshot())
	}
	if merged != s {
		t.Fatalf("merged per-goroutine snapshot differs from shared histogram")
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	// 1000 observations uniform in (0, 1024]: p50 ≈ 512, p99 ≈ 1014,
	// within log-bucket resolution (factor-2 bounds around the truth).
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %v, want within (256, 1024]", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512 || p99 > 1024 {
		t.Errorf("p99 = %v, want within (512, 1024]", p99)
	}
	if p0 := s.Quantile(0); p0 <= 0 || p0 > 2 {
		t.Errorf("p0 = %v, want in (0, 2]", p0)
	}
}

// TestZeroValueRegistry confirms a zero-value Registry (and zero-value
// Counter/Histogram fields) work without construction.
func TestZeroValueRegistry(t *testing.T) {
	var r Registry
	c := r.Counter("test_total", "a counter")
	c.Add(3)
	var external Counter
	external.Add(7)
	external.Max(5) // no-op: below current
	external.Max(9)
	r.RegisterCounter("ext_total", "external", &external)
	r.Gauge("g", "a gauge", func() int64 { return 42 })
	h := r.Histogram("lat_seconds", "latency", 1e-9)
	h.Observe(1500) // 1.5us -> bucket le=2048ns=2.048e-06s

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_total a counter",
		"# TYPE test_total counter",
		"test_total 3",
		"ext_total 9",
		"# TYPE g gauge",
		"g 42",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="2.048e-06"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 1.5e-06",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestLabeledFamilies checks HELP/TYPE are emitted once per family and label
// blocks compose with le for histograms.
func TestLabeledFamilies(t *testing.T) {
	var r Registry
	a := r.Counter(`modes_total{mode="popular"}`, "per-mode")
	b := r.Counter(`modes_total{mode="ties"}`, "per-mode")
	a.Add(2)
	b.Add(5)
	h := r.Histogram(`dur_seconds{route="solve"}`, "dur", 1)
	h.Observe(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# HELP modes_total"); got != 1 {
		t.Errorf("HELP emitted %d times, want 1:\n%s", got, out)
	}
	for _, want := range []string{
		`modes_total{mode="popular"} 2`,
		`modes_total{mode="ties"} 5`,
		`dur_seconds_bucket{route="solve",le="1"} 1`,
		`dur_seconds_sum{route="solve"} 1`,
		`dur_seconds_count{route="solve"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestDuplicatePanics(t *testing.T) {
	var r Registry
	r.Counter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "second")
}

func TestCounterHammer(t *testing.T) {
	var c Counter
	var hi Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(1)
				hi.Max(int64(g*10000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != 80000 {
		t.Fatalf("counter = %d, want 80000", got)
	}
	if got := hi.Load(); got != 79999 {
		t.Fatalf("max = %d, want 79999", got)
	}
}
