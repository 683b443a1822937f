// popbench prints the experiment tables T1..T8: each checks one of the
// paper's figures, lemmas or NC claims (Lemma 2's peeling rounds,
// Theorems 3, 10, 11 and 16, the §IV-A cycle-detection ablation, the §IV-E
// profiles and the rounds/work accounting) on generated instances.
//
// Usage:
//
//	popbench [-seed N] [-table T1,...] [-markdown]
//
// Without -table it prints every table (about half a minute on two cores).
// End-to-end performance is measured by the repository benchmark instead:
// bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	seed := flag.Int64("seed", 2020, "random seed shared by all workloads")
	tables := flag.String("table", "", "comma-separated table ids (T1..T8); empty = all")
	markdown := flag.Bool("markdown", false, "emit Markdown instead of aligned text")
	flag.Parse()

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
