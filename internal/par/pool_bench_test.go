package par

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkRoundBarrier measures the fixed cost of one bulk-synchronous
// round through the pool — dispatch, worker recruitment, chunk claiming and
// the completion barrier — with a near-empty body. n equals the worker
// count and grain is 1, so every round takes the parallel path with one
// chunk per worker and essentially zero work per chunk: the measured time
// IS the barrier latency, the per-round floor every PRAM step pays.
func BenchmarkRoundBarrier(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Range(workers, 1, func(lo, hi int) {
					sink.Add(int64(hi - lo))
				})
			}
		})
	}
}

// BenchmarkForGrainVsGoroutines compares the pool's persistent-worker
// ForGrain against spawning one goroutine per chunk with a WaitGroup — the
// naive alternative the scheduler replaces. Both run the same element-wise
// body over the same chunk decomposition, so the diff is pure scheduling
// overhead (goroutine spawn + park vs chunk claim on warm workers).
func BenchmarkForGrainVsGoroutines(b *testing.B) {
	const n = 1 << 20
	const workers = 4
	xs := make([]int64, n)
	body := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			xs[j]++
		}
	}
	grain := Grain(n, workers)
	b.Run("pool", func(b *testing.B) {
		p := NewPool(workers)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Range(n, grain, body)
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for lo := 0; lo < n; lo += grain {
				hi := lo + grain
				if hi > n {
					hi = n
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					body(lo, hi)
				}(lo, hi)
			}
			wg.Wait()
		}
	})
}

// BenchmarkRoundBreakEven measures where splitting a round across workers
// starts to pay, the measurement behind breakEven. Each op is eight rounds
// of a double-buffered pointer-doubling gather (val'[v] = val[v] +
// val[ptr[v]], ptr'[v] = ptr[ptr[v]]) over a random permutation, the
// kernels' typical round: one streaming pass plus one random read per
// element. The chunking is the one Grain uses at or above breakEven, forced
// at every n, and µs/round is the reported figure. Compare workers=1 with
// workers=2 across separate processes (-count 1, repeated): one process's
// scheduling can favor either side.
func BenchmarkRoundBreakEven(b *testing.B) {
	const rounds = 8
	for lg := 11; lg <= 19; lg++ {
		n := 1 << lg
		perm := rand.New(rand.NewSource(int64(lg))).Perm(n)
		ptr, nxtPtr := make([]int32, n), make([]int32, n)
		val, nxtVal := make([]int32, n), make([]int32, n)
		for v, u := range perm {
			ptr[v], val[v] = int32(u), int32(v)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=2^%d/workers=%d", lg, workers), func(b *testing.B) {
				p := NewPool(workers)
				defer p.Close()
				grain := max(n/(4*workers), MinGrain)
				body := func(lo, hi int) {
					for v := lo; v < hi; v++ {
						u := ptr[v]
						nxtVal[v] = val[v] + val[u]
						nxtPtr[v] = ptr[u]
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for r := 0; r < rounds; r++ {
						p.Range(n, grain, body)
						ptr, nxtPtr = nxtPtr, ptr
						val, nxtVal = nxtVal, val
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*rounds), "µs/round")
			})
		}
	}
}
