//go:build debug

package onesided

import "sync"

// Debug builds (`go build -tags debug`, `go test -tags debug ./...`) enforce
// the Instance immutability contract dynamically: when the derived caches
// (CSR, clone expansion) are first built, per-row fingerprints of
// Lists/Ranks/Capacities are recorded in a side table, and every later cache
// hit re-hashes the whole instance and panics on a mismatch — catching
// in-place mutations that would otherwise silently serve stale derived
// data. Release builds compile the hooks to no-ops.
//
// The side table holds one entry per fingerprinted Instance until
// Invalidate; debug builds therefore keep checked instances reachable. That
// is acceptable instrumentation cost — do not ship binaries built with the
// debug tag.

type debugInfo struct {
	dims uint64   // applicants, posts, capacities
	rows []uint64 // one hash per applicant row
}

var debugTable sync.Map // *Instance -> *debugInfo

func (ins *Instance) recordFingerprint() {
	info := &debugInfo{
		dims: ins.dimsFingerprint(),
		rows: make([]uint64, ins.NumApplicants),
	}
	for a := range info.rows {
		info.rows[a] = ins.rowFingerprint(a)
	}
	debugTable.Store(ins, info)
}

// checkFingerprint verifies the full instance; used on CSR cache hits (once
// per solve, O(edges) — in step with the solve itself).
func (ins *Instance) checkFingerprint() {
	v, ok := debugTable.Load(ins)
	if !ok {
		return // cache installed by a racing builder; nothing recorded yet
	}
	info := v.(*debugInfo)
	if info.dims != ins.dimsFingerprint() || len(info.rows) != ins.NumApplicants {
		ins.stalePanic()
	}
	for a := range info.rows {
		if info.rows[a] != ins.rowFingerprint(a) {
			ins.stalePanic()
		}
	}
}

func (ins *Instance) clearFingerprint() {
	debugTable.Delete(ins)
}

func (ins *Instance) stalePanic() {
	panic("onesided: Instance mutated after its derived caches were built; call Invalidate after mutating Lists/Ranks/Capacities")
}

const fnvPrime = 1099511628211

func mix(h uint64, v int32) uint64 {
	h ^= uint64(uint32(v))
	return h * fnvPrime
}

func (ins *Instance) dimsFingerprint() uint64 {
	h := uint64(14695981039346656037)
	h = mix(h, int32(ins.NumApplicants))
	h = mix(h, int32(ins.NumPosts))
	h = mix(h, int32(len(ins.Capacities)))
	for _, c := range ins.Capacities {
		h = mix(h, c)
	}
	return h
}

func (ins *Instance) rowFingerprint(a int) uint64 {
	h := uint64(14695981039346656037)
	h = mix(h, int32(len(ins.Lists[a])))
	for i := range ins.Lists[a] {
		h = mix(h, ins.Lists[a][i])
		h = mix(h, ins.Ranks[a][i])
	}
	return h
}
