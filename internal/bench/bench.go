// Package bench holds the experiment tables behind cmd/popbench: every table
// T1..T8 checks one of the paper's figures, lemmas or NC claims empirically
// (the paper itself has no evaluation tables). Performance of the program
// as users run it is measured by the repository benchmark instead
// (bash benchmark/run.sh).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/onesided"
	"repro/internal/par"
	"repro/internal/pseudoforest"
	"repro/internal/seq"
	"repro/internal/stable"
)

// Table is one experiment's result, printable as aligned text or Markdown.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Fprint writes the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Markdown writes the table as a Markdown table.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "\n*%s*\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// T1PeelingRounds validates Lemma 2: Algorithm 2's while loop runs at most
// ceil(log2 n)+1 rounds, on random instances and on the adversarial binary
// broom whose round count equals its depth.
func T1PeelingRounds(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T1",
		Title:   "Lemma 2: peeling rounds vs instance size",
		Columns: []string{"workload", "n (vertices)", "rounds", "bound ceil(log2 n)+1"},
		Notes:   "rounds never exceed the bound; the broom family meets its depth exactly",
	}
	for _, n := range []int{100, 1000, 10000, 100000} {
		ins := onesided.RandomStrict(rng, n, n, 1, 6)
		res, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{})
		if err != nil {
			panic(err)
		}
		verts := ins.NumApplicants + ins.TotalPosts()
		t.Rows = append(t.Rows, []string{
			"random", fmt.Sprint(verts), fmt.Sprint(res.Peel.Rounds), fmt.Sprint(par.Iterations(verts) + 1),
		})
	}
	for _, depth := range []int{4, 8, 12, 16} {
		ins := onesided.BinaryBroom(depth)
		res, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{})
		if err != nil {
			panic(err)
		}
		verts := ins.NumApplicants + ins.TotalPosts()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("broom d=%d", depth), fmt.Sprint(verts),
			fmt.Sprint(res.Peel.Rounds), fmt.Sprint(par.Iterations(verts) + 1),
		})
	}
	return t
}

// T2Speedup measures the NC popular matching against the sequential AIKM
// baseline and its own scaling with worker count (Theorem 3's algorithm).
func T2Speedup(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T2",
		Title:   "Theorem 3: parallel popular matching vs sequential baseline",
		Columns: []string{"n", "seq (ms)", "P=1 (ms)", "P=2 (ms)", "P=4 (ms)", fmt.Sprintf("P=%d (ms)", runtime.GOMAXPROCS(0)), "speedup(Pmax vs P1)"},
		Notes:   "seq is the linear-time AIKM algorithm; the parallel algorithm pays a log-factor work overhead and wins back wall clock with workers",
	}
	for _, n := range []int{20000, 100000, 400000} {
		ins := onesided.RandomStrict(rng, n, n, 1, 6)
		t0 := time.Now()
		if _, _, err := seq.Popular(ins); err != nil {
			panic(err)
		}
		seqD := time.Since(t0)
		var times []time.Duration
		for _, p := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			pool := par.NewPool(p)
			t1 := time.Now()
			if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{Pool: pool}); err != nil {
				panic(err)
			}
			times = append(times, time.Since(t1))
			pool.Close() // pools are persistent now; don't leak workers
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(seqD), ms(times[0]), ms(times[1]), ms(times[2]), ms(times[3]),
			fmt.Sprintf("%.2fx", float64(times[0])/float64(times[3])),
		})
	}
	return t
}

// T3MaxCard compares arbitrary popular matchings with maximum-cardinality
// ones (Algorithm 3 / Theorem 10) and the sequential switching baseline.
func T3MaxCard(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T3",
		Title:   "Theorem 10: maximum-cardinality popular matching",
		Columns: []string{"n", "plain size", "max-card size", "gain", "par (ms)", "seq (ms)"},
		Notes:   "sizes exclude last-resort assignments; gain = switches with positive margin applied",
	}
	for _, n := range []int{1000, 10000, 50000} {
		// Posts/applicants ratio 1.5 with short lists: solvable with high
		// probability at every scale, while plain popular matchings still
		// leave last-resort slack for Algorithm 3 to reclaim.
		ins, plain := solvableUniform(rng, n)
		t0 := time.Now()
		mc, err := core.SolveRequest(ins, core.Request{Mode: core.ModeMaxCard}, core.Options{})
		if err != nil {
			panic(err)
		}
		parD := time.Since(t0)
		t1 := time.Now()
		seqM, _, err := seq.MaxCardinality(ins)
		if err != nil {
			panic(err)
		}
		seqD := time.Since(t1)
		if seqM.Size(ins) != mc.Matching.Size(ins) {
			panic("max-card size mismatch between engines")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(plain.Matching.Size(ins)),
			fmt.Sprint(mc.Matching.Size(ins)),
			fmt.Sprint(mc.Matching.Size(ins) - plain.Matching.Size(ins)),
			ms(parD), ms(seqD),
		})
	}
	return t
}

// T4CycleMethods ablates the four §IV-A pseudoforest cycle-finding methods.
func T4CycleMethods(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T4",
		Title:   "§IV-A ablation: pseudoforest cycle detection, four methods",
		Columns: []string{"n", "doubling (ms)", "closure (ms)", "rank (ms)", "cc (ms)", "agree"},
		Notes:   "doubling is the O(log n)-round method Algorithm 3 uses; closure/rank/cc are the Theorem 5/7/8 routes the paper discusses",
	}
	pool := par.NewPool(0)
	defer pool.Close()
	for _, n := range []int{64, 128, 256, 512} {
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
			panic(err)
		}
		type method struct {
			name string
			fn   func() []bool
		}
		methods := []method{
			{"doubling", func() []bool { return pseudoforest.CyclesByDoubling(pool, g) }},
			{"closure", func() []bool { return pseudoforest.CyclesByClosure(pool, g) }},
			{"rank", func() []bool { return pseudoforest.CyclesByRank(pool, g) }},
			{"cc", func() []bool { return pseudoforest.CyclesByCC(pool, g) }},
		}
		var durs []time.Duration
		var results [][]bool
		for _, m := range methods {
			t0 := time.Now()
			results = append(results, m.fn())
			durs = append(durs, time.Since(t0))
		}
		agree := true
		for i := 1; i < len(results); i++ {
			for v := range results[0] {
				if results[i][v] != results[0][v] {
					agree = false
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(durs[0]), ms(durs[1]), ms(durs[2]), ms(durs[3]), fmt.Sprint(agree),
		})
	}
	return t
}

// T5TiesReduction sweeps Theorem 11's reduction across graph densities.
func T5TiesReduction(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T5",
		Title:   "Theorem 11: max bipartite matching via the popular-matching black box",
		Columns: []string{"n", "avg deg", "reduction size", "hopcroft-karp", "agree", "time (ms)"},
	}
	for _, n := range []int{100, 200, 400} {
		for _, avgDeg := range []float64{2, 6} {
			g := randomBipartite(rng, n, n, avgDeg/float64(n))
			t0 := time.Now()
			_, size, err := core.MaxMatchingViaPopular(g, core.Options{})
			if err != nil {
				panic(err)
			}
			d := time.Since(t0)
			_, _, want := hkSize(g)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprintf("%.0f", avgDeg),
				fmt.Sprint(size), fmt.Sprint(want), fmt.Sprint(size == want), ms(d),
			})
		}
	}
	return t
}

// T6NextStable measures Algorithm 4 (Theorem 16): exposed rotations and the
// full lattice walk from man- to woman-optimal.
func T6NextStable(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T6",
		Title:   "Theorem 16: \"next\" stable matchings and lattice walks",
		Columns: []string{"n", "rotations at M0", "next (ms)", "chain length", "walk (ms)"},
		Notes:   "chain length counts stable matchings on one maximal lattice chain; each step is one parallel Algorithm 4 invocation",
	}
	for _, n := range []int{100, 400, 1000} {
		ins := stable.Random(rng, n)
		m0 := stable.GaleShapley(ins)
		t0 := time.Now()
		rots, err := stable.ExposedRotations(ins, m0, stable.Options{})
		if err != nil {
			panic(err)
		}
		nextD := time.Since(t0)
		t1 := time.Now()
		chain, err := stable.LatticeWalk(ins, m0, stable.Options{})
		if err != nil {
			panic(err)
		}
		walkD := time.Since(t1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(rots)), ms(nextD), fmt.Sprint(len(chain)), ms(walkD),
		})
	}
	return t
}

// T7OptimalProfiles contrasts the §IV-E variants on one instance.
func T7OptimalProfiles(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T7",
		Title:   "§IV-E: profiles of popular matching variants",
		Columns: []string{"variant", "size", "rank-1", "rank-2", "rank-3", "last resort"},
		Notes:   "rank-maximal pushes mass to low ranks; fair minimizes last resorts first (and is maximum-cardinality)",
	}
	ins, _ := solvableUniform(rng, 4000)
	addRow := func(name string, m *onesided.Matching) {
		prof := onesided.Profile(ins, m)
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(m.Size(ins)),
			fmt.Sprint(prof[0]), fmt.Sprint(prof[1]), fmt.Sprint(prof[2]),
			fmt.Sprint(prof[len(prof)-1]),
		})
	}
	plain, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{})
	if err != nil {
		panic(err)
	}
	addRow("popular", plain.Matching)
	mc, err := core.SolveRequest(ins, core.Request{Mode: core.ModeMaxCard}, core.Options{})
	if err != nil {
		panic(err)
	}
	addRow("max-cardinality", mc.Matching)
	rm, err := core.SolveRequest(ins, core.Request{Mode: core.ModeRankMaximal}, core.Options{})
	if err != nil {
		panic(err)
	}
	addRow("rank-maximal", rm.Matching)
	fair, err := core.SolveRequest(ins, core.Request{Mode: core.ModeFair}, core.Options{})
	if err != nil {
		panic(err)
	}
	addRow("fair", fair.Matching)
	return t
}

// T8SpanScaling validates the global NC claim: bulk-synchronous rounds of
// the full pipeline grow polylogarithmically in n while work stays
// near-linear (up to the Lemma 2 log factor).
func T8SpanScaling(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{
		ID:      "T8",
		Title:   "NC accounting: rounds (span) and work vs n, full Algorithm 1",
		Columns: []string{"n", "rounds", "rounds/log2(n)^2", "work", "work/(n log2 n)"},
		Notes:   "rounds/log² stays bounded and work/(n log n) stays bounded: the definition of NC membership, measured",
	}
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		ins := onesided.RandomStrict(rng, n, n, 1, 6)
		var tr par.Tracer
		if _, err := core.SolveRequest(ins, core.Request{Mode: core.ModePopular}, core.Options{Tracer: &tr}); err != nil {
			panic(err)
		}
		lg := float64(par.Iterations(2 * n))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(tr.Rounds()),
			fmt.Sprintf("%.2f", float64(tr.Rounds())/(lg*lg)),
			fmt.Sprint(tr.Work()),
			fmt.Sprintf("%.2f", float64(tr.Work())/(float64(n)*lg)),
		})
	}
	return t
}
