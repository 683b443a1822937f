// Benchmarks: one family per paper claim T1..T8. The paper is a theory
// paper without measured tables, so these benchmarks time the quantities
// its figures, lemmas and theorems predict; `go test -bench=. -benchmem`
// runs everything. They gate nothing: the claims themselves are asserted by
// the tests of internal/core, internal/pseudoforest and internal/stable
// (rounds and work by TestTracerRoundsPolylog and
// TestAlgorithm4RoundsPolylog). End-to-end performance is measured by
// bash benchmark/run.sh.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/onesided"
	"repro/internal/par"
	"repro/internal/pseudoforest"
	"repro/internal/seq"
	"repro/internal/stable"
)

// --- T1 / E4: Lemma 2 peeling rounds (the broom forces depth rounds) ---

func BenchmarkPeelingRoundsBroom(b *testing.B) {
	for _, depth := range []int{8, 12, 16} {
		ins := onesided.BinaryBroom(depth)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{})
				if err != nil || !res.Exists {
					b.Fatal("broom must be solvable")
				}
				if res.Peel.Rounds != depth {
					b.Fatalf("rounds = %d, want %d", res.Peel.Rounds, depth)
				}
			}
		})
	}
}

// --- T2 / E5: Theorem 3, parallel popular matching vs workers and baseline ---

func BenchmarkPopular(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10000, 100000} {
		ins := onesided.RandomStrict(rng, n, n, 1, 6)
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			pool := par.NewPool(workers)
			defer pool.Close()
			b.Run(fmt.Sprintf("n=%d/P=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{Pool: pool}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPopularSequentialBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10000, 100000} {
		ins := onesided.RandomStrict(rng, n, n, 1, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := seq.Popular(ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T3 / E6: Theorem 10, maximum-cardinality popular matching ---

func BenchmarkMaxCardinality(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{10000, 50000} {
		ins := solvableUniformInstance(rng, n, b)
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModeMaxCard}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := seq.MaxCardinality(ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T4 / E7: §IV-A cycle-detection ablation ---

func BenchmarkCycleMethods(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pool := par.NewPool(0)
	defer pool.Close()
	n := 256
	succ := make([]int32, n)
	for v := range succ {
		if rng.Float64() < 0.1 {
			succ[v] = -1
		} else {
			u := rng.Intn(n)
			for u == v {
				u = rng.Intn(n)
			}
			succ[v] = int32(u)
		}
	}
	g, err := pseudoforest.New(succ)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("doubling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pseudoforest.CyclesByDoubling(pool, g)
		}
	})
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pseudoforest.CyclesByClosure(pool, g)
		}
	})
	b.Run("rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pseudoforest.CyclesByRank(pool, g)
		}
	})
	b.Run("cc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pseudoforest.CyclesByCC(pool, g)
		}
	})
}

// --- T5 / E8: Theorem 11 reduction ---

func BenchmarkTiesReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{200, 400} {
		g := bipartite.New(n, n)
		for l := 0; l < n; l++ {
			for r := 0; r < n; r++ {
				if rng.Float64() < 6.0/float64(n) {
					g.AddEdge(int32(l), int32(r))
				}
			}
		}
		b.Run(fmt.Sprintf("viaPopular/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MaxMatchingViaPopular(g, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("hopcroftKarp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				new(bipartite.Scratch).HopcroftKarpScratch(nil, g)
			}
		})
	}
}

// --- T6 / E10: Theorem 16, Algorithm 4 ---

func BenchmarkNextStable(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{200, 1000} {
		ins := stable.Random(rng, n)
		m0 := stable.GaleShapley(ins)
		b.Run(fmt.Sprintf("rotations/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stable.ExposedRotations(ins, m0, stable.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLatticeWalk(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	ins := stable.Random(rng, 300)
	m0 := stable.GaleShapley(ins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stable.LatticeWalk(ins, m0, stable.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T7 / E11: §IV-E optimal variants ---

func BenchmarkOptimalVariants(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ins := solvableUniformInstance(rng, 4000, b)
	b.Run("rankMaximal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModeRankMaximal}, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModeFair}, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- T8 / E12: NC cost accounting overhead ---

func BenchmarkPopularWithTracing(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ins := onesided.RandomStrict(rng, 100000, 100000, 1, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr par.Tracer
		if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{Tracer: &tr}); err != nil {
			b.Fatal(err)
		}
	}
}

// solvableUniformInstance draws ratio-1.5 uniform instances until one admits
// a popular matching (a handful of tries suffice above the threshold).
func solvableUniformInstance(rng *rand.Rand, n int, b *testing.B) *onesided.Instance {
	for tries := 0; tries < 200; tries++ {
		ins := onesided.RandomStrict(rng, n, n+n/2, 3, 7)
		r, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Exists {
			return ins
		}
	}
	b.Fatal("no solvable draw in 200 tries")
	return nil
}

// --- supporting micro-benchmarks: the ties solver and the oracle ---

func BenchmarkSolveTies(b *testing.B) {
	for _, n := range []int{300, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			ins := onesided.RandomTies(rng, n, n*13/15, 2, 7, 0.35)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModeTiesMax}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnpopularityOracle(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	var ins *onesided.Instance
	var m *onesided.Matching
	for {
		ins = onesided.RandomStrict(rng, 100, 100, 2, 6)
		r, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Exists {
			m = r.Matching
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if onesided.UnpopularityMargin(ins, m) > 0 {
			b.Fatal("popular matching flagged unpopular")
		}
	}
}
