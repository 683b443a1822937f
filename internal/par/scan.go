package par

// Prefix sums (scans).
//
// The implementation is the two-phase block scan: each worker reduces a block
// (parallel round 1), the per-block sums are scanned by a single worker (the
// block count is O(P), constant in n for a fixed machine; the trace charges
// it as CombineWork, the count at one worker), and each worker
// then rescans its block seeded with the block offset (parallel round 2).
// This is work-optimal O(n) with O(1) bulk-synchronous rounds; the classical
// Blelloch tree scan achieves the same result in O(log n) PRAM rounds, and
// either satisfies the NC accounting used in the experiments.

// ExclusiveScan returns out where out[i] = xs[0] + ... + xs[i-1] (out[0] = 0)
// and the total sum of xs. xs is not modified.
func ExclusiveScan(x Runner, xs []int) (out []int, total int) {
	n := len(xs)
	out = make([]int, n)
	if n == 0 {
		return out, 0
	}
	grain := Grain(n, x.Workers())
	nblocks := (n + grain - 1) / grain
	blockSum := make([]int, nblocks)

	x.Range(n, grain, func(lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		blockSum[lo/grain] = s
	})
	x.Round(n)

	running := 0
	for b := 0; b < nblocks; b++ {
		s := blockSum[b]
		blockSum[b] = running
		running += s
	}
	x.Round(CombineWork(n))

	x.Range(n, grain, func(lo, hi int) {
		s := blockSum[lo/grain]
		for i := lo; i < hi; i++ {
			out[i] = s
			s += xs[i]
		}
	})
	x.Round(n)
	return out, running
}
