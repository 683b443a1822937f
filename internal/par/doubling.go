package par

import "math/bits"

// Pointer jumping ("the doubling trick" of the paper, §III-B). The input is a
// functional graph given by a successor array: succ[v] is the unique
// out-neighbor of v, with the convention that succ[v] == v marks v as an
// absorbing terminal. After k doubling rounds every pointer has advanced
// min(2^k, distance-to-terminal) steps, so Iterations(n) rounds suffice for
// any chain in an n-vertex graph — O(log n) bulk-synchronous rounds, the core
// of every NC bound in the paper.

// Iterations returns the number of doubling rounds needed to advance pointers
// by at least n steps, i.e. ceil(log2(n)) with a minimum of 1.
func Iterations(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Double runs k pointer-doubling rounds over the functional graph succ,
// folding the per-vertex values vals along the traversed prefix.
//
// Conventions:
//   - succ[v] == v marks an absorbing terminal; vals[v] for a terminal must
//     be an identity of combine (combine(x, id) == x).
//   - vals[v] is the value "attached to v" — typically the weight of the edge
//     v -> succ[v], or v's own key for min/max folds.
//
// After k rounds the returned ptr[v] is the vertex min(2^k, d) steps from v
// (d = distance to the terminal, if any) and val[v] is the fold of the vals
// of the first min(2^k, d) vertices of the chain starting at v (the terminal
// value, an identity, is absorbed harmlessly). For vertices that lie on or
// lead into a cycle, ptr[v] after Iterations(n) rounds is some vertex of the
// cycle; val[v] is only meaningful for idempotent folds (min/max) in that
// case, because sums would overcount laps — callers on cyclic inputs must use
// idempotent combines or mask cycle vertices first.
//
// The inputs are not modified. Double uses double buffering internally so
// that each round reads a consistent snapshot, matching the synchronous PRAM
// semantics.
func Double[T any](x Runner, succ []int32, vals []T, combine func(a, b T) T, k int) (ptr []int32, val []T) {
	n := len(succ)
	ptr = make([]int32, n)
	val = make([]T, n)
	copy(ptr, succ)
	copy(val, vals)
	nextPtr := make([]int32, n)
	nextVal := make([]T, n)
	for round := 0; round < k; round++ {
		x.For(n, func(v int) {
			w := ptr[v]
			nextVal[v] = combine(val[v], val[w])
			nextPtr[v] = ptr[w]
		})
		x.Round(n)
		ptr, nextPtr = nextPtr, ptr
		val, nextVal = nextVal, val
	}
	return ptr, val
}

// Lifting is a binary-lifting (sparse jump) table over a functional graph:
// Up[k][v] is the vertex 2^k successor steps from v, with terminals
// (succ[v] == v) absorbing. It supports exact O(log n) jumps of any length,
// also around cycles. (The §IV switching-path queries need less and run on
// pseudoforest.Ladder, which stops adding levels once they change nothing
// those queries read.)
type Lifting struct {
	K  int
	Up [][]int32
}

// BuildLifting constructs the jump table with Iterations(n)+1 levels.
func BuildLifting(x Runner, succ []int32) *Lifting {
	n := len(succ)
	k := Iterations(n) + 1
	up := make([][]int32, k)
	up[0] = make([]int32, n)
	copy(up[0], succ)
	for lvl := 1; lvl < k; lvl++ {
		prev := up[lvl-1]
		cur := make([]int32, n)
		x.For(n, func(v int) { cur[v] = prev[prev[v]] })
		x.Round(n)
		up[lvl] = cur
	}
	return &Lifting{K: k, Up: up}
}

// Jump returns the vertex `steps` successor hops from v (terminals absorb).
func (l *Lifting) Jump(v int, steps int) int {
	for lvl := 0; lvl < l.K && steps > 0; lvl++ {
		if steps&(1<<lvl) != 0 {
			v = int(l.Up[lvl][v])
			steps &^= 1 << lvl
		}
	}
	return v
}
