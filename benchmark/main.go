// Command benchmark is the repository's benchmark: it runs one workload
// against the library and serving stack built from this checkout, checks
// every result, and prints the metrics BENCHMARK.json declares. Run it
// through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload serve_miss --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the last line of output is a JSON object with the
// end-to-end metrics, measured by a few processes of this program in turn;
// with --trace 1 it holds the per-layer breakdown of a separate, traced run
// in one process instead. The workloads are described beside their
// definitions below and in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// workload is one traffic mix. rate is the nominal open-loop arrival rate
// in ops/s; 0 makes the workload a closed loop of one caller.
type workload struct {
	name  string
	rate  float64
	hits  hitRule
	setup func(context.Context, options, *tracer) (env, error)
}

// hitRule is what the result cache must do for the workload's numbers to
// mean what they claim.
type hitRule int

const (
	anyHits hitRule = iota
	noHits
	allHits
)

var workloads = []*workload{
	// The paper's three algorithms as a library caller sees them; the
	// serving stack does none of the work.
	{name: "offline_solve", setup: setupOffline},
	// Every request is admitted, batched and solved; the cache and the
	// router are bypassed.
	{name: "serve_miss", rate: 200, hits: noHits, setup: setupServeMiss},
	// Router hop, cache lookup and large-result encoding; the kernel and
	// the batcher are bypassed.
	{name: "serve_hit_routed", rate: 250, hits: allHits, setup: setupServeHit},
	// Mutation, warm delta re-matches and uploads beside each other.
	{name: "session_churn", rate: 180, setup: setupSession},
}

// env is one set-up workload: inputs generated, servers listening,
// references computed.
type env interface {
	op(ctx context.Context, i int64, ot *opTrace) error
	// stack returns the in-process servers and router the ops reach.
	stack() ([]*serve.Server, *shard.Router)
	// finish runs the untimed end-of-run correctness check.
	finish(ctx context.Context) error
	close()
}

// sizes are the instance dimensions of the workloads.
type sizes struct {
	offlineN, offlineInstances, stableN int
	missN, hitN, serveInstances         int
	churnN, sessions, uploads           int
}

var fullSizes = sizes{
	offlineN: 20000, offlineInstances: 4, stableN: 500,
	missN: 2000, hitN: 20000, serveInstances: 16,
	churnN: 20000, sessions: 8, uploads: 16,
}

type options struct {
	seed    int64
	measure time.Duration // measured time of the process
	warmup  time.Duration
	setups  int // set-ups per process; setup_s is the median of a run's
	trace   bool
	spans   string // where a traced run writes its spans; "" = nowhere
	sizes   sizes
	// strict refuses a percentile of a sample too small for it. Only tests
	// running tiny steps turn it off.
	strict bool
}

func (o options) pct(xs []float64, q float64) (float64, error) {
	if !o.strict {
		return quantile(xs, q), nil
	}
	return percentile(xs, q)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = flag.Int64("seed", 2020, "seed the workload's inputs and schedule are drawn from")
		seconds  = flag.Float64("seconds", 20, "measured duration of the run in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
		spans    = flag.String("spans", "", "with --trace 1, also write the spans to this file as JSON lines")
		jsonPath = flag.String("json", "", "also write the result and the machine facts to this file")
		partK    = flag.Int("part", 0, "measure only part k of an untraced run and print its samples (the benchmark starts these processes itself)")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) || (*partK != 0 && *traced != 0) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		warmup:  2 * time.Second,
		setups:  3,
		trace:   *traced == 1,
		spans:   *spans,
		sizes:   fullSizes,
		strict:  true,
	}
	ctx := context.Background()
	if *partK > 0 {
		p, err := measurePart(ctx, w, o, *partK)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(p)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s part %d: %v\n", w.name, *partK, err)
			os.Exit(1)
		}
		return
	}
	var rep *report
	var err error
	if o.trace {
		o.setups = 1 // set-up time is an end-to-end metric, not measured here
		rep, err = runTraced(ctx, w, o)
	} else {
		rep, err = runParts(ctx, w, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	facts := machineFacts()
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-36s %14.4f %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("# %s seed=%d attempted=%d failed=%d num_cpu=%v gomaxprocs=%v go=%v\n",
		w.name, o.seed, rep.Attempted, rep.Failed, facts["num_cpu"], facts["gomaxprocs"], facts["go_version"])
	if *jsonPath != "" {
		rec := map[string]any{"workload": w.name, "seed": o.seed, "seconds": *seconds, "trace": *traced, "env": facts, "result": rep}
		if err := writeJSON(*jsonPath, rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// machineFacts are the facts a number is meaningless without.
func machineFacts() map[string]any {
	facts := map[string]any{
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"vcs_revision": "",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				facts["vcs_revision"] = s.Value
			}
		}
	}
	return facts
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
