package onesided

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// binaryCorpus builds a spread of instances covering every structural
// feature the format encodes: strict and tied rows, unit and capacitated
// posts, empty-but-non-nil capacity vectors, degenerate sizes, and the
// adversarial generator families.
func binaryCorpus(t testing.TB) map[string]*Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	mustText := func(src string) *Instance {
		ins, err := Read(strings.NewReader(src))
		if err != nil {
			t.Fatalf("corpus text %q: %v", src, err)
		}
		return ins
	}
	return map[string]*Instance{
		"strict_small":   mustText("posts 3\na0: p0 p1\na1: p1 p2\n"),
		"ties_small":     mustText("posts 3\na0: p0 (p1 p2)\na1: (p1 p2)\n"),
		"cap_small":      mustText("posts 3\nc 2 1 3\na0: p0 p1\na1: (p1 p2)\n"),
		"empty":          mustText("posts 0\n"),
		"empty_caps":     mustText("posts 0\nc\n"),
		"posts_unlisted": mustText("posts 5\na0: p4\n"),
		"random_strict":  RandomStrict(rng, 60, 40, 1, 6),
		"random_ties":    RandomTies(rng, 45, 30, 1, 5, 0.4),
		"random_cap":     RandomCapacitated(rng, 50, 20, 2, 5, 3),
		"solvable":       Solvable(rng, 64, 16, 4),
		"unsolvable":     Unsolvable(3),
		"broom":          BinaryBroom(4),
	}
}

func instancesEqual(t *testing.T, name string, want, got *Instance) {
	t.Helper()
	if got.NumApplicants != want.NumApplicants || got.NumPosts != want.NumPosts {
		t.Fatalf("%s: dimensions changed: %d/%d vs %d/%d", name,
			got.NumApplicants, got.NumPosts, want.NumApplicants, want.NumPosts)
	}
	if (got.Capacities == nil) != (want.Capacities == nil) {
		t.Fatalf("%s: capacitation changed: %v vs %v", name, got.Capacities, want.Capacities)
	}
	for p := range want.Capacities {
		if got.Capacities[p] != want.Capacities[p] {
			t.Fatalf("%s: capacity of post %d changed", name, p)
		}
	}
	for a := range want.Lists {
		if len(got.Lists[a]) != len(want.Lists[a]) {
			t.Fatalf("%s: list %d length changed", name, a)
		}
		for i := range want.Lists[a] {
			if got.Lists[a][i] != want.Lists[a][i] || got.Ranks[a][i] != want.Ranks[a][i] {
				t.Fatalf("%s: entry %d/%d changed", name, a, i)
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, ins := range binaryCorpus(t) {
		data := EncodeBinary(nil, ins.CSR())
		if !LooksBinary(data) {
			t.Fatalf("%s: encoding does not start with the magic", name)
		}
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		instancesEqual(t, name, ins, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: decoded instance fails Validate: %v", name, err)
		}
		if _, err := validateDecoded(got.CSR(), nil); err != nil {
			t.Fatalf("%s: decoded CSR fails the decoder's check: %v", name, err)
		}
		if got.Fingerprint() != ins.Fingerprint() {
			t.Fatalf("%s: fingerprint changed across binary round trip", name)
		}
		if got.Strict() != ins.Strict() || got.CSR().Strict() != ins.CSR().Strict() {
			t.Fatalf("%s: strictness changed across binary round trip", name)
		}
		// Second-generation encoding must be byte-identical (canonical form).
		if again := EncodeBinary(nil, got.CSR()); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoding is not byte-identical", name)
		}
	}
}

func TestBinaryStreamedFingerprintMatchesLazy(t *testing.T) {
	for name, ins := range binaryCorpus(t) {
		data := EncodeBinary(nil, ins.CSR())
		streamed, err := DecodeBinaryWithFingerprint(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The streamed fingerprint is already cached; it must equal both the
		// source instance's and a lazily computed one on a plain decode.
		if fp := streamed.fpCache.Load(); fp == nil {
			t.Fatalf("%s: DecodeBinaryWithFingerprint did not seed the fingerprint cache", name)
		}
		if streamed.Fingerprint() != ins.Fingerprint() {
			t.Fatalf("%s: streamed fingerprint diverges from source", name)
		}
		lazy, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lazy.fpCache.Load() != nil {
			t.Fatalf("%s: plain DecodeBinary unexpectedly computed a fingerprint", name)
		}
		if lazy.Fingerprint() != streamed.Fingerprint() {
			t.Fatalf("%s: lazy fingerprint diverges from streamed", name)
		}
	}
}

// TestBinaryDecodeAliases pins the zero-copy contract: the decoded CSR's flat
// arrays alias the input buffer (on little-endian hosts), and the decode path
// performs O(1) allocations regardless of instance size.
func TestBinaryDecodeAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("aliasing is a little-endian fast path")
	}
	rng := rand.New(rand.NewSource(7))
	ins := Solvable(rng, 500, 100, 5)
	data := EncodeBinary(nil, ins.CSR())
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	c := got.CSR()
	if unsafe.Pointer(&c.Post[0]) != unsafe.Pointer(&data[binaryHeaderSize+4*(ins.NumApplicants+1)]) {
		t.Fatal("decoded Post array does not alias the input buffer")
	}
	if unsafe.Pointer(&c.Off[0]) != unsafe.Pointer(&data[binaryHeaderSize]) {
		t.Fatal("decoded Off array does not alias the input buffer")
	}

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	// CSR struct, stamp array, Instance, Lists/Ranks headers — constant,
	// independent of n. The bound is loose (16) but orders of magnitude
	// below any per-row scheme.
	if allocs > 16 {
		t.Fatalf("DecodeBinary allocates %v times, want O(1) (<= 16)", allocs)
	}

	withFP := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBinaryWithFingerprint(data); err != nil {
			t.Fatal(err)
		}
	})
	if withFP > 24 {
		t.Fatalf("DecodeBinaryWithFingerprint allocates %v times, want O(1) (<= 24)", withFP)
	}
}

func TestBinaryReadStreamAndAuto(t *testing.T) {
	for name, ins := range binaryCorpus(t) {
		data := EncodeBinary(nil, ins.CSR())

		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadBinary: %v", name, err)
		}
		instancesEqual(t, name, ins, got)
		if got.Fingerprint() != ins.Fingerprint() {
			t.Fatalf("%s: ReadBinary fingerprint differs from the source's", name)
		}

		// Auto-detection: binary bytes and text bytes through the same door.
		got, err = ReadAuto(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadAuto(binary): %v", name, err)
		}
		instancesEqual(t, name, ins, got)

		var text bytes.Buffer
		if err := Write(&text, ins); err != nil {
			t.Fatal(err)
		}
		got, err = ReadAuto(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadAuto(text): %v", name, err)
		}
		instancesEqual(t, name, ins, got)
	}

	// Trailing garbage after a complete stream encoding must be rejected.
	ins := binaryCorpus(t)["strict_small"]
	data := append(EncodeBinary(nil, ins.CSR()), 0xFF)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadBinary accepted trailing garbage")
	}
	// A short non-binary stream must fall through to the text parser's error.
	if _, err := ReadAuto(strings.NewReader("hi")); err == nil {
		t.Fatal("ReadAuto accepted a 2-byte garbage stream")
	}
	// ReadAuto must reuse a caller's bufio.Reader without double-buffering.
	br := bufio.NewReader(bytes.NewReader(EncodeBinary(nil, ins.CSR())))
	if _, err := ReadAuto(br); err != nil {
		t.Fatalf("ReadAuto(bufio): %v", err)
	}
}

// corrupt returns a copy of data with the byte range [off, off+len(repl))
// replaced.
func corrupt(data []byte, off int, repl ...byte) []byte {
	out := append([]byte(nil), data...)
	copy(out[off:], repl)
	return out
}

func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	ins, err := Read(strings.NewReader("posts 3\nc 2 1 3\na0: p0 p1\na1: (p1 p2)\n"))
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeBinary(nil, ins.CSR())
	le32 := func(v uint32) []byte { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); return b[:] }
	le64 := func(v uint64) []byte { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); return b[:] }
	offSection := binaryHeaderSize
	postSection := offSection + 4*(ins.NumApplicants+1)
	rankSection := postSection + 4*4 // 4 edges

	cases := map[string][]byte{
		"empty":             {},
		"magic_only":        []byte(BinaryMagic),
		"bad_magic":         corrupt(data, 0, 'P'),
		"text_mode_mangled": corrupt(data, 4, '\n'), // CRLF translation ate the \r
		"bad_version":       corrupt(data, 8, le32(2)...),
		"reserved_flags":    corrupt(data, 12, le32(1<<7)...),
		"truncated_header":  data[:binaryHeaderSize-8],
		"truncated_body":    data[:len(data)-5],
		"trailing_garbage":  append(append([]byte(nil), data...), 1, 2, 3),
		"huge_applicants":   corrupt(data, 16, le64(1<<40)...),
		"huge_posts":        corrupt(data, 24, le64(1<<40)...),
		"huge_edges":        corrupt(data, 32, le64(1<<40)...),
		"edges_overflow":    corrupt(data, 32, le64(uint64(1<<31))...),
		"lying_total":       corrupt(data, 72, le64(uint64(len(data)+8))...),
		"noncanonical_off":  corrupt(data, 40, le64(binaryHeaderSize+4)...),
		"noncanonical_rank": corrupt(data, 56, le64(0)...),
		"off_nonzero_start": corrupt(data, offSection, le32(1)...),
		"off_decreasing":    corrupt(data, offSection+4, le32(^uint32(0))...), // Off[1] = -1
		"off_bad_end":       corrupt(data, offSection+8, le32(3)...),          // Off[2] != edges
		"post_out_of_range": corrupt(data, postSection, le32(9)...),
		"post_negative":     corrupt(data, postSection, le32(^uint32(0))...),
		"post_duplicate":    corrupt(data, postSection+4, le32(0)...), // a0: p0 p0
		"rank_not_one":      corrupt(data, rankSection, le32(2)...),
		"rank_jump":         corrupt(data, rankSection+4, le32(7)...),
		"rank_decrease":     corrupt(data, rankSection+12, le32(0)...),
		"capacity_zero":     corrupt(data, len(data)-12, le32(0)...),
		"capacity_negative": corrupt(data, len(data)-12, le32(^uint32(0))...),
		"strict_flag_lies":  corrupt(data, 12, le32(flagCapacities|flagStrict)...),
	}
	for name, bad := range cases {
		if _, err := DecodeBinary(bad); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
		if _, err := DecodeBinaryWithFingerprint(bad); err == nil {
			t.Errorf("%s: corrupt input decoded (fingerprinting) without error", name)
		}
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: corrupt stream read without error", name)
		}
	}
	if _, err := DecodeBinary(corrupt(data, 0, 'P')); !errors.Is(err, ErrNotBinary) {
		t.Errorf("bad magic: got %v, want ErrNotBinary", err)
	}
}

// TestBinaryReadNoOverAllocation feeds headers claiming enormous payloads
// with almost no actual data: the reader must error out without allocating
// anything near the claimed size (it reads incrementally, so the process
// would OOM long before this test failed if it pre-allocated).
func TestBinaryReadNoOverAllocation(t *testing.T) {
	header := make([]byte, binaryHeaderSize)
	copy(header, BinaryMagic)
	binary.LittleEndian.PutUint32(header[8:], binaryVersion)
	binary.LittleEndian.PutUint64(header[16:], 1<<30)            // applicants
	binary.LittleEndian.PutUint64(header[24:], 1<<30)            // posts
	binary.LittleEndian.PutUint64(header[32:], 1<<30)            // edges
	binary.LittleEndian.PutUint64(header[72:], uint64(1)<<30+80) // claims a 1 GiB payload

	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadBinary(bytes.NewReader(header)); err == nil {
			t.Fatal("accepted a header claiming 1 GiB with no payload")
		}
	})
	if allocs > 64 {
		t.Fatalf("truncated 1 GiB claim cost %v allocations — reader is over-allocating on header claims", allocs)
	}

	// Same claim but with the size declared beyond the format budget.
	binary.LittleEndian.PutUint64(header[72:], uint64(1)<<50)
	if _, err := ReadBinary(bytes.NewReader(header)); err == nil {
		t.Fatal("accepted an impossible declared size")
	}
}

func TestMapBinaryFile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ins := RandomCapacitated(rng, 40, 15, 2, 5, 3)
	path := filepath.Join(t.TempDir(), "ins.pmb")
	data := EncodeBinary(nil, ins.CSR())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	instancesEqual(t, "mmap", ins, m.Ins)
	if m.Ins.Fingerprint() != ins.Fingerprint() {
		t.Fatal("mmap fingerprint diverges")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	// Corrupt and truncated files must error without leaking a mapping.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapBinaryFile(path); err == nil {
		t.Fatal("mapped a truncated file")
	}
	if err := os.WriteFile(path, []byte("posts 2\na0: p0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapBinaryFile(path); err == nil {
		t.Fatal("mapped a text file as binary")
	}
	if _, err := MapBinaryFile(filepath.Join(t.TempDir(), "missing.pmb")); err == nil {
		t.Fatal("mapped a missing file")
	}
}

// TestReadLineTooLongContext pins the satellite fix: a line past the 16 MiB
// scanner cap must surface bufio.ErrTooLong wrapped with its line number,
// not bare.
func TestReadLineTooLongContext(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("posts 2\n")
	sb.WriteString("c 1")
	for sb.Len() < maxTextLine+8 {
		sb.WriteString(" 1")
	}
	sb.WriteString("\n")
	_, err := Read(strings.NewReader(sb.String()))
	if err == nil {
		t.Fatal("accepted a 16MiB+ capacity line")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error loses the line number: %v", err)
	}
}

// BenchmarkIngest prices the text parser against the aliasing binary decode
// on one n = 10⁵ instance (about 500k edges). CI requires binary_alias to
// be at least 5x faster than text.
func BenchmarkIngest(b *testing.B) {
	ins := Solvable(rand.New(rand.NewSource(7)), 100_000, 25_000, 5)
	var text bytes.Buffer
	if err := Write(&text, ins); err != nil {
		b.Fatal(err)
	}
	bin := EncodeBinary(nil, ins.CSR())
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Read(bytes.NewReader(text.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary_alias", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinary(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
}
