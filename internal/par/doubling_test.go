package par

import (
	"math/rand"
	"testing"
)

// chainSucc builds a path v -> v+1 -> ... -> n-1 (terminal).
func chainSucc(n int) []int32 {
	succ := make([]int32, n)
	for v := 0; v < n-1; v++ {
		succ[v] = int32(v + 1)
	}
	succ[n-1] = int32(n - 1)
	return succ
}

func TestIterations(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Iterations(n); got != want {
			t.Errorf("Iterations(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDoubleSumAlongChain(t *testing.T) {
	p := NewPool(4)
	n := 50
	succ := chainSucc(n)
	vals := make([]int, n)
	for v := 0; v < n-1; v++ {
		vals[v] = v + 1 // weight of edge v -> v+1
	}
	vals[n-1] = 0 // identity at terminal
	_, val := Double(p, succ, vals, func(a, b int) int { return a + b }, Iterations(n)+1)
	for v := 0; v < n; v++ {
		want := 0
		for u := v; u < n-1; u++ {
			want += u + 1
		}
		if val[v] != want {
			t.Fatalf("val[%d] = %d, want %d", v, val[v], want)
		}
	}
}

func TestDoubleMinOnCycle(t *testing.T) {
	// min is idempotent, so it is valid on cycles: every vertex of a cycle
	// must learn the cycle minimum after enough rounds.
	p := NewPool(4)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(200)
		perm := rng.Perm(n)
		succ := make([]int32, n)
		for i, v := range perm {
			succ[v] = int32(perm[(i+1)%n]) // single n-cycle
		}
		vals := make([]int, n)
		for v := range vals {
			vals[v] = v
		}
		_, val := Double(p, succ, vals, func(a, b int) int {
			if a < b {
				return a
			}
			return b
		}, Iterations(n)+1)
		for v := 0; v < n; v++ {
			if val[v] != 0 {
				t.Fatalf("n=%d: val[%d] = %d, want 0 (cycle min)", n, v, val[v])
			}
		}
	}
}

func TestDoubleRandomForestAgainstNaiveWalk(t *testing.T) {
	p := NewPool(0)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(300)
		succ := make([]int32, n)
		vals := make([]int, n)
		// Random in-forest: succ[v] < v guarantees termination at 0.
		succ[0] = 0
		vals[0] = 0
		for v := 1; v < n; v++ {
			succ[v] = int32(rng.Intn(v))
			vals[v] = rng.Intn(20)
		}
		ptr, val := Double(p, succ, vals, func(a, b int) int { return a + b }, Iterations(n)+1)
		for v := 0; v < n; v++ {
			// Naive walk.
			sum, u := 0, v
			for u != 0 {
				sum += vals[u]
				u = int(succ[u])
			}
			if val[v] != sum {
				t.Fatalf("n=%d: val[%d] = %d, want %d", n, v, val[v], sum)
			}
			if ptr[v] != 0 {
				t.Fatalf("n=%d: ptr[%d] = %d, want terminal 0", n, v, ptr[v])
			}
		}
	}
}

func BenchmarkDoubling(b *testing.B) {
	p := NewPool(0)
	n := 1 << 18
	succ := chainSucc(n)
	vals := make([]int, n)
	for i := range vals {
		vals[i] = 1
	}
	vals[n-1] = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Double(p, succ, vals, func(a, c int) int { return a + c }, Iterations(n)+1)
	}
}
