package onesided

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadWrite hardens the full text-format round trip, including the
// capacitated `c <caps...>` header: arbitrary input must either parse into a
// Validate-clean instance whose serialization parses back to an identical
// instance (lists, ranks and capacities), or return an error — never panic.
// The committed seed corpus lives under testdata/fuzz/FuzzReadWrite.
func FuzzReadWrite(f *testing.F) {
	f.Add("posts 3\na0: p0 p1\na1: (p1 p2)\n")
	f.Add("posts 3\nc 2 1 3\na0: p0 p1\na1: (p1 p2)\n")
	f.Add("posts 1\nc 1\na0: p0\n")
	f.Add("posts 0\nc\n")
	f.Add("posts 2\nc 1\na0: p0\n")
	f.Add("posts 2\nc 0 1\na0: p0\n")
	f.Add("posts 2\nc 1 99999999999999999999\na0: p0\n")
	f.Add("posts 2\nc 1 1\nc 2 2\na0: p0\n")
	f.Add("posts 2\na0: p0\nc 1 1\n")
	f.Add("posts 2\nc: p0 p1\n")
	f.Add("posts 2\nc\t2 1\na0: (p0 p1)\n")
	f.Fuzz(func(t *testing.T, src string) {
		ins, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		if vErr := ins.Validate(); vErr != nil {
			t.Fatalf("parser accepted an invalid instance: %v\ninput: %q", vErr, src)
		}
		var sb strings.Builder
		if wErr := Write(&sb, ins); wErr != nil {
			t.Fatalf("write-back failed: %v", wErr)
		}
		again, rErr := Read(strings.NewReader(sb.String()))
		if rErr != nil {
			t.Fatalf("round trip failed: %v\nserialized: %q", rErr, sb.String())
		}
		if again.NumApplicants != ins.NumApplicants || again.NumPosts != ins.NumPosts {
			t.Fatalf("round trip changed dimensions")
		}
		if (again.Capacities == nil) != (ins.Capacities == nil) {
			t.Fatalf("round trip changed capacitation: %v vs %v", ins.Capacities, again.Capacities)
		}
		for p := range ins.Capacities {
			if again.Capacities[p] != ins.Capacities[p] {
				t.Fatalf("round trip changed capacity of post %d", p)
			}
		}
		for a := range ins.Lists {
			if len(again.Lists[a]) != len(ins.Lists[a]) {
				t.Fatalf("round trip changed list %d", a)
			}
			for i := range ins.Lists[a] {
				if again.Lists[a][i] != ins.Lists[a][i] || again.Ranks[a][i] != ins.Ranks[a][i] {
					t.Fatalf("round trip changed entry %d/%d", a, i)
				}
			}
		}
	})
}

// FuzzBinaryReadWrite hardens the binary-format decoder: arbitrary bytes
// must either decode into a Validate-clean instance that round-trips
// byte-identically through both the binary and the text format (with one
// stable fingerprint), or return an error — never panic, and never allocate
// based on an unvalidated header claim. Seeds cover valid encodings of
// every structural feature plus systematically corrupted variants.
func FuzzBinaryReadWrite(f *testing.F) {
	texts := []string{
		"posts 3\na0: p0 p1\na1: p1 p2\n",
		"posts 3\nc 2 1 3\na0: p0 p1\na1: (p1 p2)\n",
		"posts 3\na0: p0 (p1 p2)\n",
		"posts 0\n",
		"posts 0\nc\n",
		"posts 5\na0: p4\n",
	}
	for _, src := range texts {
		ins, err := Read(strings.NewReader(src))
		if err != nil {
			f.Fatal(err)
		}
		enc := EncodeBinary(nil, ins.CSR())
		f.Add(enc)
		// A few deterministic corruptions per seed: header fields, section
		// bytes, truncations.
		for _, off := range []int{0, 8, 12, 16, 32, 72, binaryHeaderSize, len(enc) - 1} {
			if off < len(enc) {
				bad := append([]byte(nil), enc...)
				bad[off] ^= 0x41
				f.Add(bad)
			}
		}
		f.Add(enc[:len(enc)/2])
		f.Add(append(append([]byte(nil), enc...), 0))
	}
	f.Add([]byte(BinaryMagic))
	huge := make([]byte, binaryHeaderSize)
	copy(huge, BinaryMagic)
	binary.LittleEndian.PutUint32(huge[8:], binaryVersion)
	binary.LittleEndian.PutUint64(huge[16:], 1<<40)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		ins, err := DecodeBinary(data)
		if err != nil {
			// The fingerprinting decoder and the stream reader must agree
			// that the input is bad.
			if _, err2 := DecodeBinaryWithFingerprint(data); err2 == nil {
				t.Fatalf("DecodeBinary rejected (%v) but DecodeBinaryWithFingerprint accepted", err)
			}
			if _, err2 := ReadBinary(bytes.NewReader(data)); err2 == nil {
				t.Fatalf("DecodeBinary rejected (%v) but ReadBinary accepted", err)
			}
			return
		}
		if vErr := ins.Validate(); vErr != nil {
			t.Fatalf("decoder accepted an invalid instance: %v", vErr)
		}
		if _, csrErr := validateDecoded(ins.CSR(), nil); csrErr != nil {
			t.Fatalf("decoder produced an invalid CSR: %v", csrErr)
		}
		// Binary round trip: canonical re-encoding decodes to the same
		// instance with the same fingerprint.
		enc := EncodeBinary(nil, ins.CSR())
		again, err := DecodeBinaryWithFingerprint(enc)
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %v", err)
		}
		if again.Fingerprint() != ins.Fingerprint() {
			t.Fatal("binary round trip changed the fingerprint")
		}
		if !bytes.Equal(EncodeBinary(nil, again.CSR()), enc) {
			t.Fatal("re-encoding is not canonical")
		}
		// Cross-format: the text round trip preserves the fingerprint too.
		var sb strings.Builder
		if wErr := Write(&sb, ins); wErr != nil {
			t.Fatalf("text write-back failed: %v", wErr)
		}
		viaText, rErr := Read(strings.NewReader(sb.String()))
		if rErr != nil {
			t.Fatalf("text round trip failed: %v\nserialized: %q", rErr, sb.String())
		}
		if viaText.Fingerprint() != ins.Fingerprint() {
			t.Fatal("text round trip changed the fingerprint")
		}
	})
}

// TestCrossFormatFingerprintDifferential pins the contract the serve
// registry depends on: for every corpus instance, parsing the text encoding
// and decoding the binary encoding produce instances with identical
// fingerprints (and identical content) — an id minted for a text upload
// matches the id of the same instance uploaded in binary or loaded from the
// store.
func TestCrossFormatFingerprintDifferential(t *testing.T) {
	corpus := []*Instance{}
	for _, src := range []string{
		"posts 3\na0: p0 p1\na1: (p1 p2)\n",
		"posts 3\nc 2 1 3\na0: p0 p1\na1: (p1 p2)\n",
		"posts 1\nc 1\na0: p0\n",
		"posts 0\nc\n",
		"posts 0\n",
		"posts 2\nc\t2 1\na0: (p0 p1)\n",
	} {
		ins, err := Read(strings.NewReader(src))
		if err != nil {
			t.Fatalf("corpus %q: %v", src, err)
		}
		corpus = append(corpus, ins)
	}
	rng := rand.New(rand.NewSource(2020))
	corpus = append(corpus,
		RandomStrict(rng, 80, 50, 1, 6),
		RandomTies(rng, 60, 40, 1, 5, 0.35),
		RandomCapacitated(rng, 70, 25, 2, 5, 4),
		RandomStrictZipf(rng, 50, 40, 5, 1.1),
		Solvable(rng, 100, 25, 4),
		Unsolvable(3),
		BinaryBroom(5),
	)
	for i, ins := range corpus {
		var text bytes.Buffer
		if err := Write(&text, ins); err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		fromText, err := Read(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("corpus %d: text parse: %v", i, err)
		}
		fromBinary, err := DecodeBinaryWithFingerprint(EncodeBinary(nil, ins.CSR()))
		if err != nil {
			t.Fatalf("corpus %d: binary decode: %v", i, err)
		}
		if fromText.Fingerprint() != fromBinary.Fingerprint() {
			t.Fatalf("corpus %d: text fingerprint %s != binary fingerprint %s",
				i, fromText.Fingerprint(), fromBinary.Fingerprint())
		}
		if ins.Fingerprint() != fromBinary.Fingerprint() {
			t.Fatalf("corpus %d: source fingerprint diverges from round trips", i)
		}
	}
}

// FuzzRead hardens the instance parser: arbitrary input must either parse
// into a Validate-clean instance that round-trips, or return an error —
// never panic.
func FuzzRead(f *testing.F) {
	f.Add("posts 3\na0: p0 p1\na1: (p1 p2)\n")
	f.Add("posts 1\na0: p0\n")
	f.Add("posts 0\n")
	f.Add("# comment\nposts 2\n\na: p1\n")
	f.Add("posts 2\na0: (p0 p1\n")
	f.Add("garbage")
	f.Add("posts 9999999\na0: p0")
	f.Fuzz(func(t *testing.T, src string) {
		ins, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		if vErr := ins.Validate(); vErr != nil {
			t.Fatalf("parser accepted an invalid instance: %v\ninput: %q", vErr, src)
		}
		var sb strings.Builder
		if wErr := Write(&sb, ins); wErr != nil {
			t.Fatalf("write-back failed: %v", wErr)
		}
		again, rErr := Read(strings.NewReader(sb.String()))
		if rErr != nil {
			t.Fatalf("round trip failed: %v\nserialized: %q", rErr, sb.String())
		}
		if again.NumApplicants != ins.NumApplicants || again.NumPosts != ins.NumPosts {
			t.Fatalf("round trip changed dimensions")
		}
		for a := range ins.Lists {
			if len(again.Lists[a]) != len(ins.Lists[a]) {
				t.Fatalf("round trip changed list %d", a)
			}
			for i := range ins.Lists[a] {
				if again.Lists[a][i] != ins.Lists[a][i] || again.Ranks[a][i] != ins.Ranks[a][i] {
					t.Fatalf("round trip changed entry %d/%d", a, i)
				}
			}
		}
	})
}
