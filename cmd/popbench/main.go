// popbench regenerates the experiment tables of EXPERIMENTS.md and the
// machine-readable pool benchmark.
//
// Usage:
//
//	popbench [-seed N] [-table T1,...] [-markdown]
//	popbench -json BENCH_csr.json -scenario large [-n N] [-seed N]
//	popbench -json BENCH_pool.json [-seed N]
//	popbench -json BENCH_capacitated.json -scenario capacitated [-seed N]
//	popbench -json BENCH_ties.json -scenario ties [-n N] [-seed N]
//	popbench -json BENCH_serve.json -scenario serve [-n N] [-seed N]
//	popbench -json BENCH_delta.json -scenario delta [-n N] [-seed N]
//	popbench -json BENCH_scaling.json -scenario scaling [-n N] [-workers 1,2,4,8] [-seed N]
//	popbench -json BENCH_ingest.json -scenario ingest [-n N] [-seed N]
//	popbench -json BENCH_shard.json -scenario shard [-n N] [-shards 1,2,4] [-seed N]
//
// Without -table it runs everything (several minutes for the larger sweeps).
// With -json it instead benchmarks a machine-readable scenario and writes a
// JSON array of records — instance size, workers, PRAM rounds/work, ns/op,
// allocs/op — so successive PRs can diff the perf trajectory. -scenario
// selects which: `pool` (default) measures the execution-context layer
// (persistent Solver vs one-shot vs a SolveRequest loop); `capacitated`
// measures the CHA clone-reduction pipeline against its unit baseline;
// `ties` the §V ties path against the strict kernel; `serve` the HTTP
// serving stack under closed-loop load (throughput, p50/p99 latency,
// shared-solve and cache counters); `delta` the incremental re-match path (single-row edit + warm
// solve vs full re-solve, with the bit-identical differential check);
// `scaling` sweeps the -workers counts at fixed -n and reports speedup over
// workers=1 plus the bit-identical-matching check; `ingest` prices every
// instance-ingest surface (text parse, zero-copy binary decode with and
// without streamed fingerprinting, stream read, mmap) with the cross-format
// fingerprint check on each record; `shard` sweeps the -shards counts over
// the sharded serving tier (a poprouter fronting shared-nothing popserved
// shards) and reports fleet QPS, p50/p99 through the router, the per-shard
// request distribution, the shed count and the router-vs-direct determinism
// check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	seed := flag.Int64("seed", 2020, "random seed shared by all workloads")
	tables := flag.String("table", "", "comma-separated table ids (T1..T8); empty = all")
	markdown := flag.Bool("markdown", false, "emit Markdown instead of aligned text")
	jsonPath := flag.String("json", "", "write the selected -scenario benchmark as JSON to this file ('-' = stdout) and exit")
	scenario := flag.String("scenario", "pool", "benchmark scenario for -json: pool|capacitated|large|ties|serve|delta|scaling|ingest|shard")
	sizeN := flag.Int("n", 0, "override the scenario's instance size (0 = scenario default; used by CI smoke runs)")
	workersCSV := flag.String("workers", "1,2,4,8", "comma-separated worker counts for -scenario scaling")
	shardsCSV := flag.String("shards", "1,2,4", "comma-separated shard counts for -scenario shard")
	flag.Parse()

	if *jsonPath != "" {
		var writeJSON func(io.Writer, int64) error
		switch *scenario {
		case "pool":
			writeJSON = bench.WritePoolJSON
		case "capacitated":
			writeJSON = bench.WriteCapacitatedJSON
		case "large":
			writeJSON = func(w io.Writer, seed int64) error { return bench.WriteLargeJSON(w, seed, *sizeN) }
		case "ties":
			writeJSON = func(w io.Writer, seed int64) error { return bench.WriteTiesJSON(w, seed, *sizeN) }
		case "serve":
			writeJSON = func(w io.Writer, seed int64) error { return bench.WriteServeJSON(w, seed, *sizeN) }
		case "delta":
			writeJSON = func(w io.Writer, seed int64) error { return bench.WriteDeltaJSON(w, seed, *sizeN) }
		case "ingest":
			writeJSON = func(w io.Writer, seed int64) error { return bench.WriteIngestJSON(w, seed, *sizeN) }
		case "scaling":
			workers, err := parseWorkers(*workersCSV)
			if err != nil {
				fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
				os.Exit(2)
			}
			n := *sizeN
			if n == 0 {
				n = 1_000_000
			}
			writeJSON = func(w io.Writer, seed int64) error { return bench.WriteScalingJSON(w, seed, n, workers) }
		case "shard":
			shardCounts, err := parseWorkers(*shardsCSV)
			if err != nil {
				fmt.Fprintf(os.Stderr, "popbench: invalid -shards: %v\n", err)
				os.Exit(2)
			}
			writeJSON = func(w io.Writer, seed int64) error { return bench.WriteShardJSON(w, seed, *sizeN, shardCounts) }
		default:
			fmt.Fprintf(os.Stderr, "popbench: unknown scenario %q (valid: pool, capacitated, large, ties, serve, delta, scaling, ingest, shard)\n", *scenario)
			os.Exit(2)
		}
		if *sizeN != 0 && (*scenario == "pool" || *scenario == "capacitated") {
			fmt.Fprintf(os.Stderr, "popbench: -n does not apply to -scenario %s (fixed sizes)\n", *scenario)
			os.Exit(2)
		}
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := writeJSON(out, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runners := map[string]func(int64) *bench.Table{
		"T1": bench.T1PeelingRounds,
		"T2": bench.T2Speedup,
		"T3": bench.T3MaxCard,
		"T4": bench.T4CycleMethods,
		"T5": bench.T5TiesReduction,
		"T6": bench.T6NextStable,
		"T7": bench.T7OptimalProfiles,
		"T8": bench.T8SpanScaling,
	}
	order := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"}

	var selected []string
	if *tables == "" {
		selected = order
	} else {
		for _, id := range strings.Split(*tables, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "popbench: unknown table %q (valid: %s)\n", id, strings.Join(order, ","))
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}
	for _, id := range selected {
		t := runners[id](*seed)
		if *markdown {
			t.Markdown(os.Stdout)
		} else {
			t.Fprint(os.Stdout)
		}
	}
}

// parseWorkers parses the -workers CSV into positive ints.
func parseWorkers(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("invalid -workers entry %q (want positive integers)", part)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers is empty")
	}
	return out, nil
}
