package onesided

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// rowDigests caches one truncated SHA-256 per applicant preference row. The
// content fingerprint is a hash over these digests (plus dimensions and
// capacities), so a single-row mutation re-hashes one row and one O(n) pass
// over fixed-size digests instead of the whole edge set — while keeping the
// full collision resistance of SHA-256 for registry/cache keying.
type rowDigests [][16]byte

// Fingerprint returns a stable content hash of the instance: 32 lowercase
// hex characters derived from SHA-256 over the dimensions, one per-row
// digest of each applicant's (posts, ranks) list, and the capacity vector.
// Two instances have equal fingerprints exactly when they describe the same
// preference system (same applicants, posts, lists, ranks and capacities),
// independent of how they were constructed, the process that hashes them, or
// the host architecture — so the fingerprint is a valid registry key and
// cache key across daemon restarts.
//
// The row digests are maintained incrementally by the mutation API
// (delta.go): editing one preference row re-hashes that row only, and the
// next Fingerprint call recombines the cached digests. Both levels are
// cached alongside the other derived structures and subject to the Instance
// immutability contract (Invalidate drops them with the rank maps and CSR).
func (ins *Instance) Fingerprint() string {
	if fp := ins.fpCache.Load(); fp != nil {
		return *fp
	}
	h := newRowHasher()
	d := ins.digests.Load()
	if d == nil {
		built := make(rowDigests, ins.NumApplicants)
		for a := range ins.Lists {
			built[a] = h.digest(ins.Lists[a], ins.Ranks[a])
		}
		// Concurrent builders race benignly: identical digests, either wins.
		ins.digests.Store(&built)
		d = &built
	}
	fp := h.combine(ins.NumApplicants, ins.NumPosts, *d, ins.Capacities)
	ins.fpCache.Store(&fp)
	return fp
}

// rowHasher computes fingerprint digests with one reused SHA-256 state and
// one encode buffer that input is streamed through in chunks, so hashing a
// row allocates nothing, whatever its length.
type rowHasher struct {
	h   hash.Hash
	sum [sha256.Size]byte
	buf [512]byte // a multiple of 8: whole (post, rank) pairs per chunk
}

func newRowHasher() *rowHasher { return &rowHasher{h: sha256.New()} }

// digest hashes one preference row. The length prefix keeps rows from
// colliding by concatenation; posts and ranks are interleaved little-endian.
func (r *rowHasher) digest(posts, ranks []int32) (d [16]byte) {
	r.h.Reset()
	binary.LittleEndian.PutUint64(r.buf[:], uint64(len(posts)))
	n := 8
	for i := range posts {
		if n == len(r.buf) {
			r.h.Write(r.buf[:n])
			n = 0
		}
		binary.LittleEndian.PutUint32(r.buf[n:], uint32(posts[i]))
		binary.LittleEndian.PutUint32(r.buf[n+4:], uint32(ranks[i]))
		n += 8
	}
	r.h.Write(r.buf[:n])
	copy(d[:], r.h.Sum(r.sum[:0]))
	return d
}

// combine hashes the per-row digests into the top-level fingerprint. Each
// row digest is fixed-size and the row count is written first, so the
// encoding is prefix-free; section tags keep the capacity vector from
// colliding with digest bytes.
func (r *rowHasher) combine(numApplicants, numPosts int, rows rowDigests, caps []int32) string {
	r.h.Reset()
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(r.buf[:], uint64(v))
		r.h.Write(r.buf[:8])
	}
	writeTag := func(tag byte) {
		r.buf[0] = tag
		r.h.Write(r.buf[:1])
	}
	writeInt(numApplicants)
	writeInt(numPosts)
	writeTag('R')
	for i := range rows {
		r.h.Write(rows[i][:])
	}
	writeTag('c')
	writeInt(len(caps))
	for _, v := range caps {
		binary.LittleEndian.PutUint32(r.buf[:], uint32(v))
		r.h.Write(r.buf[:4])
	}
	var hex32 [32]byte
	hex.Encode(hex32[:], r.h.Sum(r.sum[:0])[:16])
	return string(hex32[:])
}
