package core

import (
	"testing"

	"repro/internal/onesided"
	"repro/internal/seq"
)

// FuzzPopularDifferential decodes a byte string into a tiny strict instance
// and cross-checks the parallel solver against the independent sequential
// implementation and the Theorem 1 verifier. Run with `go test -fuzz
// FuzzPopularDifferential ./internal/core` for continuous exploration; the
// seed corpus executes as a normal test.
func FuzzPopularDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 1, 7, 9, 200, 13})
	f.Add([]byte{5})
	f.Fuzz(func(t *testing.T, data []byte) {
		ins := decodeInstance(data)
		if ins == nil {
			return
		}
		res, err := SolveRequest(ins, Request{Mode: ModePopular}, Options{})
		if err != nil {
			t.Fatalf("parallel solver errored: %v", err)
		}
		seqM, seqOK, err := seq.Popular(ins)
		if err != nil {
			t.Fatalf("sequential solver errored: %v", err)
		}
		if res.Exists != seqOK {
			t.Fatalf("existence mismatch: parallel=%v sequential=%v (lists=%v)",
				res.Exists, seqOK, ins.Lists)
		}
		if res.Exists {
			if err := VerifyPopular(ins, res.Matching, Options{}); err != nil {
				t.Fatalf("parallel output fails Theorem 1: %v", err)
			}
			if err := VerifyPopular(ins, seqM, Options{}); err != nil {
				t.Fatalf("sequential output fails Theorem 1: %v", err)
			}
		}
	})
}

// decodeInstance deterministically maps bytes to a small strict instance:
// byte 0 selects the post count (1..8); subsequent bytes emit preference
// entries, with separators splitting applicants. Returns nil for degenerate
// encodings.
func decodeInstance(data []byte) *onesided.Instance {
	if len(data) < 2 {
		return nil
	}
	numPosts := int(data[0])%8 + 1
	var lists [][]int32
	cur := []int32{}
	seen := map[int32]bool{}
	flush := func() {
		if len(cur) > 0 {
			lists = append(lists, cur)
			cur = []int32{}
			seen = map[int32]bool{}
		}
	}
	for _, b := range data[1:] {
		if b%7 == 0 {
			flush()
			continue
		}
		p := int32(b) % int32(numPosts)
		if !seen[p] {
			seen[p] = true
			cur = append(cur, p)
		}
	}
	flush()
	if len(lists) == 0 || len(lists) > 7 {
		return nil
	}
	ins, err := onesided.NewStrict(numPosts, lists)
	if err != nil {
		return nil
	}
	return ins
}
