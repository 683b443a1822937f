//go:build debug

package onesided

import "testing"

// TestDebugMutationPanics verifies the `debug` build-tag enforcement of the
// Instance immutability contract: mutating Lists after the caches are built,
// without calling Invalidate, must panic on the next cache hit.
func TestDebugMutationPanics(t *testing.T) {
	ins, err := NewStrict(3, [][]int32{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	ins.CSR()
	ins.Lists[0][1] = 2 // stale mutation, no Invalidate
	defer func() {
		if recover() == nil {
			t.Fatal("stale CSR did not panic under -tags debug")
		}
	}()
	ins.CSR()
}

// TestDebugInvalidateClears verifies the escape hatch under the debug tag:
// Invalidate after mutation must not panic.
func TestDebugInvalidateClears(t *testing.T) {
	ins, err := NewStrict(3, [][]int32{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	ins.CSR()
	ins.Lists[0][1] = 2
	ins.Invalidate()
	if c := ins.CSR(); c.Post[c.Off[0]+1] != 2 {
		t.Fatalf("CSR after Invalidate lists %v for applicant 0", c.Post[c.Off[0]:c.Off[1]])
	}
}
