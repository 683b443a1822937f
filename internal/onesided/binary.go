package onesided

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Binary interchange format: a versioned, little-endian, columnar encoding
// that mirrors the CSR form exactly, so an on-disk or uploaded instance can
// be validated in one bounds-checking pass and aliased (or mmap'd) straight
// into the solver with zero conversion. Layout, all fields little-endian:
//
//	offset size  field
//	0      8     magic "\x89PMC\r\n\x1a\n" (PNG-style: catches 7-bit
//	             strippers, CRLF translation and truncation at ^Z)
//	8      4     uint32 version (currently 1)
//	12     4     uint32 flags (bit 0: capacities section present,
//	             bit 1: instance is strictly ordered; other bits reserved,
//	             must be zero)
//	16     8     uint64 numApplicants
//	24     8     uint64 numPosts
//	32     8     uint64 numEdges (total preference-list length)
//	40     8     uint64 byte offset of the Off section
//	48     8     uint64 byte offset of the Post section
//	56     8     uint64 byte offset of the Rank section
//	64     8     uint64 byte offset of the Capacities section (0 if absent)
//	72     8     uint64 total encoded size in bytes
//	80     ...   Off:  (numApplicants+1) int32 — CSR row offsets
//	...    ...   Post: numEdges int32 — post ids, rows concatenated
//	...    ...   Rank: numEdges int32 — 1-based ranks aligned with Post
//	...    ...   Capacities: numPosts int32 (only when flag bit 0 is set)
//
// Version 1 requires the canonical section layout (sections contiguous, in
// the order above, each 4-byte aligned — which the header sizes guarantee);
// the offsets are stored anyway so future versions can add sections without
// breaking old readers' bounds checks. Counts are stored as uint64 but must
// fit in int32 like every other layer of the system.
//
// The decoder never trusts a header claim it has not bounds-checked against
// the actual byte count, so corrupt or adversarial inputs error out without
// over-allocating, and the strictness flag is re-derived during validation
// rather than believed.

// BinaryMagic is the 8-byte signature every binary instance starts with.
const BinaryMagic = "\x89PMC\r\n\x1a\n"

const (
	binaryVersion    = 1
	binaryHeaderSize = 80

	flagCapacities = 1 << 0
	flagStrict     = 1 << 1
	flagKnown      = flagCapacities | flagStrict
)

// ErrNotBinary is returned when the input does not start with BinaryMagic.
var ErrNotBinary = errors.New("onesided: not a binary instance (bad magic)")

// LooksBinary reports whether b begins with the binary-format magic. It is
// the auto-detection predicate: text instances start with "posts" or
// comments, never with the magic's non-ASCII first byte.
func LooksBinary(b []byte) bool {
	return len(b) >= len(BinaryMagic) && string(b[:len(BinaryMagic)]) == BinaryMagic
}

// binaryLayout is the decoded header of an encoding, with every field
// bounds-checked against the actual input length.
type binaryLayout struct {
	flags      uint32
	applicants int
	posts      int
	edges      int
	offOff     int
	postOff    int
	rankOff    int
	capOff     int
	total      int
}

// binarySize returns the exact encoded size for the given dimensions.
func binarySize(applicants, posts, edges int, hasCaps bool) uint64 {
	total := uint64(binaryHeaderSize)
	total += 4 * (uint64(applicants) + 1) // Off
	total += 8 * uint64(edges)            // Post + Rank
	if hasCaps {
		total += 4 * uint64(posts)
	}
	return total
}

// EncodeBinary appends the binary encoding of c to buf and returns the
// extended slice (pass nil to allocate exactly). c must be structurally
// valid; use Instance.CSR or a decoder output.
func EncodeBinary(buf []byte, c *CSR) []byte {
	hasCaps := c.Capacities != nil
	total := binarySize(c.NumApplicants, c.NumPosts, c.NumEdges(), hasCaps)
	if buf == nil {
		buf = make([]byte, 0, total)
	}
	var flags uint32
	if hasCaps {
		flags |= flagCapacities
	}
	if c.Strict() {
		flags |= flagStrict
	}
	offOff := uint64(binaryHeaderSize)
	postOff := offOff + 4*(uint64(c.NumApplicants)+1)
	rankOff := postOff + 4*uint64(c.NumEdges())
	capOff := uint64(0)
	if hasCaps {
		capOff = rankOff + 4*uint64(c.NumEdges())
	}

	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u64[:4], v)
		buf = append(buf, u64[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		buf = append(buf, u64[:]...)
	}
	buf = append(buf, BinaryMagic...)
	put32(binaryVersion)
	put32(flags)
	put64(uint64(c.NumApplicants))
	put64(uint64(c.NumPosts))
	put64(uint64(c.NumEdges()))
	put64(offOff)
	put64(postOff)
	put64(rankOff)
	put64(capOff)
	put64(total)
	buf = appendInt32s(buf, c.Off)
	buf = appendInt32s(buf, c.Post)
	buf = appendInt32s(buf, c.Rank)
	if hasCaps {
		buf = appendInt32s(buf, c.Capacities)
	}
	return buf
}

// appendInt32s appends vals little-endian.
func appendInt32s(buf []byte, vals []int32) []byte {
	if hostLittleEndian {
		// The flat arrays are already the wire representation.
		return append(buf, int32sAsBytes(vals)...)
	}
	var b [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		buf = append(buf, b[:]...)
	}
	return buf
}

// WriteBinary writes the binary encoding of ins to w.
func WriteBinary(w io.Writer, ins *Instance) error {
	_, err := w.Write(EncodeBinary(nil, ins.CSR()))
	return err
}

// parseBinaryHeader decodes and fully bounds-checks the header against the
// actual input length. Nothing is allocated based on an unchecked claim.
func parseBinaryHeader(data []byte) (binaryLayout, error) {
	var l binaryLayout
	if !LooksBinary(data) {
		return l, ErrNotBinary
	}
	if len(data) < binaryHeaderSize {
		return l, fmt.Errorf("onesided: binary instance truncated: %d header bytes, want %d", len(data), binaryHeaderSize)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != binaryVersion {
		return l, fmt.Errorf("onesided: unsupported binary instance version %d (reader supports %d)", v, binaryVersion)
	}
	l.flags = binary.LittleEndian.Uint32(data[12:])
	if l.flags&^uint32(flagKnown) != 0 {
		return l, fmt.Errorf("onesided: binary instance sets reserved flag bits %#x", l.flags&^uint32(flagKnown))
	}
	applicants := binary.LittleEndian.Uint64(data[16:])
	posts := binary.LittleEndian.Uint64(data[24:])
	edges := binary.LittleEndian.Uint64(data[32:])
	// Counts share the int32 budget of every other layer (post ids and CSR
	// offsets are int32), and numApplicants+1 must still fit.
	if applicants >= math.MaxInt32 || posts > math.MaxInt32 || edges > math.MaxInt32 {
		return l, fmt.Errorf("onesided: binary instance dimensions overflow int32 (%d applicants, %d posts, %d edges)",
			applicants, posts, edges)
	}
	l.applicants, l.posts, l.edges = int(applicants), int(posts), int(edges)
	hasCaps := l.flags&flagCapacities != 0
	want := binarySize(l.applicants, l.posts, l.edges, hasCaps)
	total := binary.LittleEndian.Uint64(data[72:])
	if total != want {
		return l, fmt.Errorf("onesided: binary instance declares %d bytes, dimensions require %d", total, want)
	}
	if uint64(len(data)) != want {
		return l, fmt.Errorf("onesided: binary instance is %d bytes, header requires %d", len(data), want)
	}
	l.total = int(want)
	// Version 1 fixes the canonical layout; the stored offsets must agree.
	offOff := uint64(binaryHeaderSize)
	postOff := offOff + 4*(uint64(l.applicants)+1)
	rankOff := postOff + 4*uint64(l.edges)
	capOff := uint64(0)
	if hasCaps {
		capOff = rankOff + 4*uint64(l.edges)
	}
	for _, c := range [...]struct {
		name string
		got  uint64
		want uint64
	}{
		{"off", binary.LittleEndian.Uint64(data[40:]), offOff},
		{"post", binary.LittleEndian.Uint64(data[48:]), postOff},
		{"rank", binary.LittleEndian.Uint64(data[56:]), rankOff},
		{"capacity", binary.LittleEndian.Uint64(data[64:]), capOff},
	} {
		if c.got != c.want {
			return l, fmt.Errorf("onesided: binary instance %s section at offset %d, canonical layout requires %d", c.name, c.got, c.want)
		}
	}
	l.offOff, l.postOff, l.rankOff, l.capOff = int(offOff), int(postOff), int(rankOff), int(capOff)
	return l, nil
}

// DecodeBinary decodes a complete binary encoding, aliasing the CSR arrays
// directly into data — zero copies, zero per-row work beyond the single
// validation pass. The caller must treat data as immutable afterwards (for
// an mmap'd read-only file the kernel enforces this); mutation requires
// Instance.Clone. The decoded instance arrives with its CSR cache seeded, so
// the first solve pays no conversion.
func DecodeBinary(data []byte) (*Instance, error) {
	return decodeBinary(data, false)
}

// DecodeBinaryWithFingerprint is DecodeBinary with fingerprint streaming: the
// per-row SHA-256 digests (and the combined content fingerprint) are computed
// during the same validation pass that already walks every row, so ingest
// surfaces that key by fingerprint (the serve registry, the on-disk store)
// never re-walk the arrays. Instance.Fingerprint on the result is a cache
// hit.
func DecodeBinaryWithFingerprint(data []byte) (*Instance, error) {
	return decodeBinary(data, true)
}

func decodeBinary(data []byte, fingerprint bool) (*Instance, error) {
	l, err := parseBinaryHeader(data)
	if err != nil {
		return nil, err
	}
	c := &CSR{
		NumApplicants: l.applicants,
		NumPosts:      l.posts,
		Off:           aliasInt32s(data[l.offOff:l.postOff]),
		Post:          aliasInt32s(data[l.postOff:l.rankOff]),
		Rank:          aliasInt32s(data[l.rankOff : l.rankOff+4*l.edges]),
	}
	if l.flags&flagCapacities != 0 {
		c.Capacities = aliasInt32s(data[l.capOff:l.total])
	}
	var h *rowHasher
	if fingerprint {
		h = newRowHasher()
	}
	digests, err := validateDecoded(c, h)
	if err != nil {
		return nil, err
	}
	if c.Strict() != (l.flags&flagStrict != 0) {
		return nil, fmt.Errorf("onesided: binary instance strictness flag %v contradicts its rank data", l.flags&flagStrict != 0)
	}
	ins := c.Instance()
	ins.csrCache.Store(c)
	if fingerprint {
		ins.digests.Store(&digests)
		fp := h.combine(l.applicants, l.posts, digests, c.Capacities)
		ins.fpCache.Store(&fp)
	}
	ins.recordFingerprint()
	return ins, nil
}

// validateDecoded is the single bounds-checking pass over a freshly aliased
// CSR: it enforces exactly the invariants of CSR.Validate (monotone offsets
// covering the flat arrays, non-empty rows, in-range distinct posts, 1-based
// contiguous nondecreasing ranks, positive capacities), derives the
// strictness bit, and — given a hasher — streams the per-row SHA-256
// digests while the row is hot in cache. Duplicate detection goes through
// dupSet, so a pathological header (huge post space, tiny file) costs
// memory proportional to the input, not to the claim.
func validateDecoded(c *CSR, h *rowHasher) (rowDigests, error) {
	if c.Off[0] != 0 {
		return nil, fmt.Errorf("onesided: binary instance row offsets start at %d, want 0", c.Off[0])
	}
	if int(c.Off[c.NumApplicants]) != len(c.Post) {
		return nil, fmt.Errorf("onesided: binary instance row offsets end at %d but flat arrays have %d entries",
			c.Off[c.NumApplicants], len(c.Post))
	}
	for p, cp := range c.Capacities {
		if cp < 1 {
			return nil, fmt.Errorf("onesided: post %d has capacity %d, want >= 1", p, cp)
		}
	}
	seen := newDupSet(c.NumPosts, len(c.Post))
	var digests rowDigests
	if h != nil {
		digests = make(rowDigests, c.NumApplicants)
	}
	strict := true
	for a := 0; a < c.NumApplicants; a++ {
		lo, hi := c.Off[a], c.Off[a+1]
		if hi < lo || int(hi) > len(c.Post) {
			return nil, fmt.Errorf("onesided: binary instance row offsets of applicant %d are out of order", a)
		}
		if lo == hi {
			return nil, fmt.Errorf("onesided: applicant %d has an empty preference list", a)
		}
		stamp := int32(a) + 1
		for i := lo; i < hi; i++ {
			p := c.Post[i]
			if p < 0 || int(p) >= c.NumPosts {
				return nil, fmt.Errorf("onesided: applicant %d lists out-of-range post %d", a, p)
			}
			if seen.mark(p, stamp) {
				return nil, fmt.Errorf("onesided: applicant %d lists post %d twice", a, p)
			}
			switch {
			case i == lo && c.Rank[i] != 1:
				return nil, fmt.Errorf("onesided: applicant %d first rank is %d, want 1", a, c.Rank[i])
			case i > lo && (c.Rank[i] < c.Rank[i-1] || c.Rank[i] > c.Rank[i-1]+1):
				return nil, fmt.Errorf("onesided: applicant %d ranks not contiguous at position %d", a, i-lo)
			}
			if i > lo && c.Rank[i] == c.Rank[i-1] {
				strict = false
			}
		}
		if h != nil {
			digests[a] = h.digest(c.Post[lo:hi], c.Rank[lo:hi])
		}
	}
	c.strict = strict
	return digests, nil
}

// ReadBinary reads one complete binary encoding from r. The stream is read
// incrementally (never pre-allocating a corrupt header's claimed size), then
// decoded with DecodeBinaryWithFingerprint — a from-stream read is an ingest
// surface, so the fingerprint streams too.
func ReadBinary(r io.Reader) (*Instance, error) {
	var header [binaryHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("onesided: binary instance truncated inside the %d-byte header", binaryHeaderSize)
		}
		return nil, err
	}
	if !LooksBinary(header[:]) {
		return nil, ErrNotBinary
	}
	total := binary.LittleEndian.Uint64(header[72:])
	if total < binaryHeaderSize || total > math.MaxInt32 {
		return nil, fmt.Errorf("onesided: binary instance declares impossible size %d", total)
	}
	// ReadAll grows geometrically from the bytes actually received, so a
	// header claiming more data than the stream holds errors out after
	// reading only what exists. The +1 over-read detects trailing garbage.
	rest, err := io.ReadAll(io.LimitReader(r, int64(total)-binaryHeaderSize+1))
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) != total-binaryHeaderSize {
		return nil, fmt.Errorf("onesided: binary instance declares %d bytes but the stream has %d",
			total, binaryHeaderSize+len(rest))
	}
	data := make([]byte, 0, total)
	data = append(data, header[:]...)
	data = append(data, rest...)
	return DecodeBinaryWithFingerprint(data)
}

// ReadAuto reads an instance in either format, sniffing the binary magic:
// binary encodings start with BinaryMagic (whose first byte is non-ASCII),
// text instances never do. Every CLI file/stdin ingest path goes through
// here, so both formats are accepted everywhere an instance is read.
func ReadAuto(r io.Reader) (*Instance, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	prefix, err := br.Peek(len(BinaryMagic))
	if err == nil && LooksBinary(prefix) {
		return ReadBinary(br)
	}
	// Short streams (< 8 bytes) and text both land here; the text parser
	// reports their errors with line context.
	return Read(br)
}

// hostLittleEndian reports whether the host stores int32s in the wire byte
// order, making aliasing (and raw section writes) valid.
var hostLittleEndian = func() bool {
	var v uint32 = 1
	return *(*byte)(unsafe.Pointer(&v)) == 1
}()

// aliasInt32s reinterprets b (length a multiple of 4) as an int32 slice. On
// little-endian hosts with 4-byte alignment this is a zero-copy alias; the
// rare misaligned or big-endian case decodes into a fresh slice so the
// result is correct everywhere.
func aliasInt32s(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return []int32{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// int32sAsBytes reinterprets vals as raw little-endian bytes (callers gate on
// hostLittleEndian).
func int32sAsBytes(vals []int32) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 4*len(vals))
}
