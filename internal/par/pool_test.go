package par

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func pools() []*Pool {
	return []*Pool{Sequential(), NewPool(2), NewPool(4), NewPool(0)}
}

func TestNewPoolWorkerCount(t *testing.T) {
	if got := NewPool(3).Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	if got := NewPool(0).Workers(); got < 1 {
		t.Fatalf("Workers() = %d for default pool, want >= 1", got)
	}
	if got := NewPool(-5).Workers(); got < 1 {
		t.Fatalf("Workers() = %d for negative request, want >= 1", got)
	}
	if got := Sequential().Workers(); got != 1 {
		t.Fatalf("Sequential().Workers() = %d, want 1", got)
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, p := range pools() {
		for _, n := range []int{0, 1, 7, 255, 256, 257, 10000} {
			counts := make([]atomic.Int32, n)
			p.ForGrain(n, 17, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", p.Workers(), n, i, got)
				}
			}
		}
	}
}

func TestRangeChunksPartition(t *testing.T) {
	p := NewPool(4)
	n := 1000
	seen := make([]atomic.Int32, n)
	p.Range(n, 13, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, seen[i].Load())
		}
	}
}

func TestRangeZeroAndNegative(t *testing.T) {
	p := NewPool(4)
	called := false
	p.Range(0, 10, func(lo, hi int) { called = true })
	p.Range(-3, 10, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Range called fn for non-positive n")
	}
}

func TestForGrainSmallerThanOne(t *testing.T) {
	p := NewPool(4)
	var sum atomic.Int64
	p.ForGrain(100, 0, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
}

func TestTracerCounts(t *testing.T) {
	var tr Tracer
	tr.Round(10)
	tr.Round(5)
	if tr.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2", tr.Rounds())
	}
	if tr.Work() != 15 {
		t.Fatalf("Work() = %d, want 15", tr.Work())
	}
	tr.Reset()
	if tr.Rounds() != 0 || tr.Work() != 0 {
		t.Fatalf("Reset did not clear: %s", tr.String())
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Round(5)
	tr.Reset()
	if tr.Rounds() != 0 || tr.Work() != 0 || tr.String() != "rounds=0 work=0" {
		t.Fatal("nil tracer should be inert")
	}
}

func TestTracerConcurrent(t *testing.T) {
	var tr Tracer
	p := NewPool(8)
	p.ForGrain(1000, 1, func(i int) { tr.Round(1) })
	if tr.Rounds() != 1000 || tr.Work() != 1000 {
		t.Fatalf("concurrent tracer lost updates: %s", tr.String())
	}
}

func BenchmarkParallelFor(b *testing.B) {
	p := NewPool(0)
	data := make([]float64, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.For(len(data), func(j int) { data[j] = float64(j) * 1.5 })
	}
}

func TestStressIrregularWork(t *testing.T) {
	// Dynamic chunk claiming must still cover everything when per-index cost
	// is highly skewed.
	p := NewPool(8)
	rng := rand.New(rand.NewSource(1))
	cost := make([]int, 5000)
	for i := range cost {
		cost[i] = rng.Intn(50)
	}
	var total atomic.Int64
	p.ForGrain(len(cost), 1, func(i int) {
		s := 0
		for j := 0; j < cost[i]; j++ {
			s += j
		}
		total.Add(int64(s % 7))
		_ = s
	})
	// Deterministic expected value computed sequentially.
	var want int64
	for i := range cost {
		s := 0
		for j := 0; j < cost[i]; j++ {
			s += j
		}
		want += int64(s % 7)
	}
	if total.Load() != want {
		t.Fatalf("parallel total = %d, want %d", total.Load(), want)
	}
}
