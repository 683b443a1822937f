package bench

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/onesided"
	"repro/internal/par"
	"repro/popmatch"
)

// PoolRecord is one machine-readable benchmark measurement of the
// execution-context layer. The popbench -json output is a JSON array of
// these, giving future PRs a perf trajectory to diff against (ns/op and
// allocs/op of the persistent-pool Solver vs the one-shot path).
type PoolRecord struct {
	// Name identifies the workload: solver_reuse, one_shot or solve_batch.
	Name string `json:"name"`
	// N is the instance size (applicants); Batch the batch length (1 for
	// single-solve workloads).
	N     int `json:"n"`
	Batch int `json:"batch"`
	// Workers is the pool size the workload ran on.
	Workers int `json:"workers"`
	// Rounds/Work are the PRAM cost counters of one representative solve.
	Rounds int64 `json:"rounds"`
	Work   int64 `json:"work"`
	// Go benchmark results.
	Iterations  int   `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// poolInstance builds the deterministic workload instance for size n.
func poolInstance(seed int64, n int) *onesided.Instance {
	rng := rand.New(rand.NewSource(seed))
	return onesided.Solvable(rng, n, n/4, 5)
}

// traceCosts runs one traced solve and reports its PRAM rounds and work.
func traceCosts(ins *popmatch.Instance, workers int) (int64, int64) {
	return traceRequestCosts(ins, workers, popmatch.Request{Mode: popmatch.ModePopular})
}

// traceRequestCosts runs one traced solve of the given request and reports
// its PRAM rounds and work, so every scenario's records carry truthful
// round/work accounting instead of zero placeholders.
func traceRequestCosts(ins *popmatch.Instance, workers int, req popmatch.Request) (int64, int64) {
	var st popmatch.Stats
	s := popmatch.NewSolver(popmatch.Options{Workers: workers, Trace: &st})
	defer s.Close()
	if _, err := s.SolveRequest(context.Background(), ins, req); err != nil {
		panic(err)
	}
	return st.Rounds(), st.Work()
}

// PoolBench measures the execution-context layer: repeated Solver.Solve on a
// persistent pool (pool + arena reuse), the one-shot compatibility path, and
// a loop of SolveRequest calls over a batch of instances, across instance
// sizes and worker counts.
func PoolBench(seed int64) []PoolRecord {
	var out []PoolRecord
	workersSet := []int{1, runtime.GOMAXPROCS(0)}
	if workersSet[1] == 1 {
		workersSet = workersSet[:1]
	}
	for _, n := range []int{500, 2000, 8000} {
		ins := poolInstance(seed, n)
		for _, workers := range workersSet {
			rounds, work := traceCosts(ins, workers)

			s := popmatch.NewSolver(popmatch.Options{Workers: workers})
			reuse := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(ctx, ins); err != nil {
						b.Fatal(err)
					}
				}
			})
			s.Close()
			out = append(out, record("solver_reuse", n, 1, workers, rounds, work, reuse))

			oneShot := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := popmatch.Solve(ins, popmatch.Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
			out = append(out, record("one_shot", n, 1, workers, rounds, work, oneShot))
		}
	}

	// A batch of instances solved in a loop over the shared pool.
	const batchLen = 16
	rng := rand.New(rand.NewSource(seed + 1))
	instances := make([]*popmatch.Instance, batchLen)
	for i := range instances {
		instances[i] = onesided.Solvable(rng, 1000, 100, 4)
	}
	s := popmatch.NewSolver(popmatch.Options{})
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		req := popmatch.Request{Mode: popmatch.ModePopular}
		for i := 0; i < b.N; i++ {
			for _, ins := range instances {
				if _, err := s.SolveRequest(ctx, ins, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	s.Close()
	rounds, work := traceCosts(instances[0], 0)
	out = append(out, record("solve_batch", 1000, batchLen, par.Shared().Workers(), rounds, work, batch))
	return out
}

func record(name string, n, batch, workers int, rounds, work int64, r testing.BenchmarkResult) PoolRecord {
	return PoolRecord{
		Name:        name,
		N:           n,
		Batch:       batch,
		Workers:     workers,
		Rounds:      rounds,
		Work:        work,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// WritePoolJSON runs PoolBench and writes the records as indented JSON.
func WritePoolJSON(w io.Writer, seed int64) error {
	records := PoolBench(seed)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
