// Package hungarian solves the rectangular assignment problem (maximum-weight
// perfect-on-rows bipartite matching) with the O(n²m) potential-based
// Hungarian algorithm.
//
// In this repository it serves the unpopularity-margin oracle: for a
// matching M, the maximum of votes(M', M) − votes(M, M') over all matchings
// M' is an assignment problem with per-edge vote weights in {−1, 0, +1}, and
// M is popular iff the optimum is ≤ 0 — an independent check of every
// popularity result.
package hungarian

import "math"

// Forbidden marks a non-edge. MaxAssign never selects a forbidden pair
// unless no feasible assignment exists, in which case ok is false.
const Forbidden = math.MinInt64

// MaxAssign finds an assignment of each of the n rows to a distinct column
// (n <= m) maximizing the total weight w(row, col). It returns the
// assignment, its total weight, and whether a feasible (no forbidden edges)
// assignment exists.
func MaxAssign(n, m int, w func(row, col int) int64) (rowTo []int, total int64, ok bool) {
	if n > m {
		panic("hungarian: more rows than columns")
	}
	if n == 0 {
		return nil, 0, true
	}
	// Internally minimize cost = -w with a large finite penalty for
	// forbidden edges; 1-based arrays in the classic formulation.
	const inf = int64(1) << 62
	const penalty = int64(1) << 40
	cost := func(i, j int) int64 {
		x := w(i, j)
		if x == Forbidden {
			return penalty
		}
		return -x
	}
	u := make([]int64, n+1)
	v := make([]int64, m+1)
	p := make([]int, m+1)   // p[j]: row assigned to column j (0 = none)
	way := make([]int, m+1) // way[j]: previous column on the alternating path
	minv := make([]int64, m+1)
	used := make([]bool, m+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowTo = make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] != 0 {
			rowTo[p[j]-1] = j - 1
		}
	}
	ok = true
	for i := 0; i < n; i++ {
		x := w(i, rowTo[i])
		if x == Forbidden {
			ok = false
			continue
		}
		total += x
	}
	return rowTo, total, ok
}
