package par

// Parallel reductions. Each reduction is one bulk-synchronous round of block
// partial-reductions followed by a small sequential combine over the O(P)
// block results.

// Reduce combines f(0), f(1), ..., f(n-1) with the associative function
// combine, starting from the identity element id. combine must be
// associative; it need not be commutative (blocks are combined in index
// order).
func Reduce[T any](x Runner, n int, id T, f func(i int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	grain := Grain(n, x.Workers())
	nblocks := (n + grain - 1) / grain
	partial := make([]T, nblocks)
	// Pre-fill with the identity: Range may legally cover several blocks
	// with a single fn(0, n) call (sequential pools, small n), leaving later
	// partial slots unwritten — they must fold as identities, not as T's
	// zero value.
	for b := range partial {
		partial[b] = id
	}
	x.Range(n, grain, func(lo, hi int) {
		acc := id
		for i := lo; i < hi; i++ {
			acc = combine(acc, f(i))
		}
		partial[lo/grain] = acc
	})
	x.Round(n)
	acc := id
	for _, v := range partial {
		acc = combine(acc, v)
	}
	x.Round(CombineWork(n))
	return acc
}

// SumInt returns f(0)+...+f(n-1).
func SumInt(x Runner, n int, f func(i int) int) int {
	return Reduce(x, n, 0, f, func(a, b int) int { return a + b })
}

// CountTrue returns the number of i in [0,n) with f(i) true.
func CountTrue(x Runner, n int, f func(i int) bool) int {
	return SumInt(x, n, func(i int) int {
		if f(i) {
			return 1
		}
		return 0
	})
}

// Any reports whether f(i) holds for at least one i in [0,n).
func Any(x Runner, n int, f func(i int) bool) bool {
	return CountTrue(x, n, f) > 0
}

// MinIndex returns the smallest index i minimizing key(i), breaking ties by
// smaller index. It returns -1 for n == 0.
func MinIndex(x Runner, n int, key func(i int) int) int {
	type kv struct{ k, i int }
	id := kv{0, -1}
	best := Reduce(x, n, id, func(i int) kv { return kv{key(i), i} }, func(a, b kv) kv {
		switch {
		case a.i == -1:
			return b
		case b.i == -1:
			return a
		case b.k < a.k || (b.k == a.k && b.i < a.i):
			return b
		default:
			return a
		}
	})
	return best.i
}

// MaxIndex returns the smallest index i maximizing key(i). It returns -1 for
// n == 0.
func MaxIndex(x Runner, n int, key func(i int) int) int {
	return MinIndex(x, n, func(i int) int { return -key(i) })
}
