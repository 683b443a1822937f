package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket i (for
// i < NumBuckets-1) covers observations v with BucketUpper(i-1) < v <=
// BucketUpper(i), where BucketUpper(i) = 2^i; the last bucket is the
// overflow (+Inf) bucket. 40 power-of-two buckets span 1ns..~9.1min when
// observing nanoseconds, which covers every latency this repository measures
// while keeping a snapshot at 42 words.
const NumBuckets = 40

// Histogram is a lock-free fixed-bucket log2-scale histogram. The zero value
// is ready to use. Observe is a single atomic add pair per call; Snapshot and
// Merge operate on plain value copies, so concurrent observers never contend
// with readers.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// bucketOf maps an observation to its bucket: ceil(log2(v)) clamped to the
// bucket range, so bucket i has the exact upper bound 2^i.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2(v)) for v >= 2
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns bucket i's inclusive upper bound in raw (unscaled)
// units. The last bucket is unbounded and reports MaxInt64.
func BucketUpper(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one value. Negative values clamp to zero (they land in
// bucket 0 and contribute nothing to the sum's magnitude guarantees).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram. Snapshots are plain
// values: mergeable, comparable by field, safe to retain.
type HistSnapshot struct {
	Counts [NumBuckets]int64
	Sum    int64
	Count  int64
}

// Snapshot copies the histogram's current state. Each field is read with one
// atomic load; a snapshot taken while observers run is per-field consistent
// (sums over Counts equal Count once observers quiesce).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range s.Counts {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Merge adds o's observations into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Quantile estimates the q-quantile (0 <= q <= 1) in raw units by linear
// interpolation inside the target bucket. With no observations it returns 0;
// observations in the overflow bucket report that bucket's lower bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	cum := float64(0)
	for i := 0; i < NumBuckets; i++ {
		c := float64(s.Counts[i])
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lb := float64(0)
			if i > 0 {
				lb = float64(BucketUpper(i - 1))
			}
			if i == NumBuckets-1 {
				return lb // unbounded bucket: report its lower bound
			}
			ub := float64(BucketUpper(i))
			return lb + (target-cum)/c*(ub-lb)
		}
		cum += c
	}
	return float64(BucketUpper(NumBuckets - 2))
}
