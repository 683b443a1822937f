package bench

import (
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/onesided"
)

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(99)) }

func randomBipartite(rng *rand.Rand, nl, nr int, density float64) *bipartite.Graph {
	g := bipartite.New(nl, nr)
	for l := 0; l < nl; l++ {
		for r := 0; r < nr; r++ {
			if rng.Float64() < density {
				g.AddEdge(int32(l), int32(r))
			}
		}
	}
	return g
}

func hkSize(g *bipartite.Graph) ([]int32, []int32, int) {
	return bipartite.HopcroftKarp(g)
}

// solvableUniform draws uniform instances at posts/applicants ratio 1.5 with
// lists of 3..7 — above the existence threshold, so a solvable draw arrives
// within a few tries at any scale — and returns it with its plain popular
// matching.
func solvableUniform(rng *rand.Rand, n int) (*onesided.Instance, core.Outcome) {
	for tries := 0; tries < 200; tries++ {
		ins := onesided.RandomStrict(rng, n, n+n/2, 3, 7)
		r, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{})
		if err != nil {
			panic(err)
		}
		if r.Exists {
			return ins, r
		}
	}
	panic("bench: no solvable uniform draw in 200 tries")
}
