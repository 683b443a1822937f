package par

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func seqExclusiveScan(xs []int) ([]int, int) {
	out := make([]int, len(xs))
	s := 0
	for i, x := range xs {
		out[i] = s
		s += x
	}
	return out, s
}

// tracedPool runs loops on a pool and records their PRAM costs in a tracer.
type tracedPool struct {
	*Pool
	tr *Tracer
}

func (r tracedPool) Round(work int) { r.tr.Round(work) }

func TestExclusiveScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range pools() {
		for _, n := range []int{0, 1, 2, 100, 1023, 1024, 1025, 50000} {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = rng.Intn(100) - 50
			}
			got, total := ExclusiveScan(tracedPool{p, new(Tracer)}, xs)
			want, wantTotal := seqExclusiveScan(xs)
			if total != wantTotal {
				t.Fatalf("workers=%d n=%d: total = %d, want %d", p.Workers(), n, total, wantTotal)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d n=%d: out[%d] = %d, want %d", p.Workers(), n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestScanQuick(t *testing.T) {
	p := NewPool(0)
	f := func(xs []int16) bool {
		ys := make([]int, len(xs))
		for i, x := range xs {
			ys[i] = int(x)
		}
		got, total := ExclusiveScan(p, ys)
		want, wantTotal := seqExclusiveScan(ys)
		if total != wantTotal {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScanDoesNotModifyInput(t *testing.T) {
	p := NewPool(4)
	xs := []int{1, 2, 3, 4}
	orig := append([]int(nil), xs...)
	ExclusiveScan(p, xs)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("ExclusiveScan modified its input")
		}
	}
}

func BenchmarkExclusiveScan(b *testing.B) {
	p := NewPool(0)
	xs := make([]int, 1<<22)
	for i := range xs {
		xs[i] = i & 15
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExclusiveScan(p, xs)
	}
}
