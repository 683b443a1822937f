// popmatch solves popular matching instances from the text format.
//
// Usage:
//
//	popmatch [-mode popular|maxcard|ties|tiesmax|maxweight|minweight|rankmaximal|fair]
//	         [-workers N] [-timeout D] [-verify] [-stats] [-trace]
//	         [-check assignment.txt] [file]
//
// -trace prints a per-phase cost table of the solve to stderr (rounds, work
// and wall time per algorithm phase, plus total barrier-wait time) — the
// same breakdown the popserved API returns for "trace": true solves.
//
// -stats prints the solve's total rounds and work, read from the same
// per-solve trace.
//
// -mode is backed by the engine's shared mode enum, so the CLI accepts
// exactly the modes the library and the popserved HTTP surface accept
// ("rankmax" remains an accepted spelling of rankmaximal). The weighted
// modes use the built-in cardinality weights.
//
// Reads the instance from `file` or stdin. The text format is:
//
//	posts <numPosts>
//	a0: p0 (p2 p3) p1        # parentheses = tie class
//
// Output: one line per applicant `a<i> -> p<j>` (or `a<i> -> last-resort`),
// followed by a summary. Capacitated instances (a `c <caps...>` header in
// the input) are solved through the clone reduction; the per-applicant lines
// are followed by per-post assignment lists `p<j> <- a... (k/cap)`.
//
// With -check, popmatch does not solve: it reads an assignment in its own
// output format from the given file (lines `a<i> -> p<j>` or `a<i> ->
// last-resort`; other lines are ignored, so a previous run's full output
// can be fed back directly) and verifies it against the instance with the
// exact margin oracle. This works for unit and capacitated instances alike.
//
// Exit codes: 0 success; 1 no popular matching exists, or an input/solve
// error; 2 usage error; 3 verification failed (-verify or -check judged the
// assignment not popular, with the reason on stderr).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/popmatch"
)

// failVerification prints a clear diagnostic and exits with the dedicated
// verification-failure code (3), distinct from the "no popular matching"
// exit (1) so scripted pipelines can tell a wrong answer from an
// unsolvable instance.
func failVerification(err error) {
	fmt.Fprintf(os.Stderr, "popmatch: verification failed: %v\n", err)
	os.Exit(3)
}

// readAssignment parses popmatch's own output format back into a
// per-applicant post vector: `a<i> -> p<j>` and `a<i> -> last-resort`
// lines, every other line ignored. Applicants without a line are unmatched
// (-1).
func readAssignment(r io.Reader, ins *popmatch.Instance) ([]int32, error) {
	postOf := make([]int32, ins.NumApplicants)
	for i := range postOf {
		postOf[i] = -1
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || fields[1] != "->" || !strings.HasPrefix(fields[0], "a") {
			continue
		}
		a, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(fields[0], "a"), ":"))
		if err != nil {
			continue
		}
		if a < 0 || a >= ins.NumApplicants {
			return nil, fmt.Errorf("assignment names applicant a%d of %d", a, ins.NumApplicants)
		}
		switch {
		case fields[2] == "last-resort":
			postOf[a] = ins.LastResort(a)
		case strings.HasPrefix(fields[2], "p"):
			p, err := strconv.Atoi(strings.TrimPrefix(fields[2], "p"))
			if err != nil || p < 0 || p >= ins.TotalPosts() {
				return nil, fmt.Errorf("bad post token %q for a%d", fields[2], a)
			}
			postOf[a] = int32(p)
		default:
			return nil, fmt.Errorf("bad assignment token %q for a%d", fields[2], a)
		}
	}
	return postOf, sc.Err()
}

// printTrace writes the per-phase cost table of a traced solve: one line per
// phase that recorded activity, then the totals. Emitted on stderr so a
// scripted pipeline reading the assignment from stdout is unaffected.
func printTrace(w io.Writer, tr *popmatch.SolveTrace) {
	fmt.Fprintf(w, "# %-14s %8s %12s %14s\n", "phase", "rounds", "work", "time")
	for _, p := range tr.Phases {
		fmt.Fprintf(w, "# %-14s %8d %12d %14s\n", p.Name, p.Rounds, p.Work, time.Duration(p.DurationNs))
	}
	fmt.Fprintf(w, "# %-14s %8d %12d %14s (barrier-wait %s)\n",
		"total", tr.Rounds, tr.Work, time.Duration(tr.DurationNs), time.Duration(tr.BarrierWaitNs))
}

// usageError prints the diagnostic and exits with the usage code (2),
// matching the flag package's own behavior for undefined flags.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "popmatch: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("popmatch: ")
	mode := flag.String("mode", "popular", popmatch.ModeNames())
	workers := flag.Int("workers", 0, "worker pool size (0 = all CPUs)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
	verify := flag.Bool("verify", false, "re-verify the result with the Theorem 1 characterization and the margin oracle")
	stats := flag.Bool("stats", false, "print parallel round/work accounting")
	traceFlag := flag.Bool("trace", false, "print a per-phase cost table (rounds, work, wall time) to stderr")
	check := flag.String("check", "", "verify the assignment in this file (popmatch output format) against the instance instead of solving; exit 3 if it is not popular")
	flag.Parse()
	solveMode, err := popmatch.ParseMode(*mode)
	if err != nil {
		usageError("%v", err)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	ins, err := popmatch.ReadAuto(in)
	if err != nil {
		log.Fatal(err)
	}

	s := popmatch.NewSolver(popmatch.Options{Workers: *workers})
	defer s.Close()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			log.Fatal(err)
		}
		postOf, err := readAssignment(f, ins)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// Structural validation first (capacity respected, posts on lists),
		// then the exact margin oracle; both verdicts use the dedicated
		// verification exit code.
		as, err := popmatch.AssignmentFromPostOf(ins, postOf)
		if err != nil {
			failVerification(err)
		}
		margin, err := s.UnpopularityMargin(ctx, ins, &popmatch.Matching{PostOf: as.PostOf})
		if err != nil {
			log.Fatal(err) // -timeout bounds the oracle too
		}
		if margin > 0 {
			failVerification(fmt.Errorf("assignment is not popular: challenger margin %d", margin))
		}
		fmt.Println("# verified popular")
		return
	}

	req := popmatch.Request{Mode: solveMode}
	var solveTrace popmatch.SolveTrace
	if *traceFlag || *stats {
		req.Trace = &solveTrace
	}
	res, err := s.SolveRequest(ctx, ins, req)
	if *traceFlag {
		printTrace(os.Stderr, &solveTrace)
	}
	if err != nil {
		log.Fatal(err)
	}
	if !res.Exists {
		fmt.Println("no popular matching exists")
		os.Exit(1)
	}
	var postOf []int32
	if res.Assignment != nil {
		postOf = res.Assignment.PostOf
	} else {
		postOf = res.Matching.PostOf
	}
	for a, p := range postOf {
		if int(p) >= ins.NumPosts {
			fmt.Printf("a%d -> last-resort\n", a)
		} else {
			fmt.Printf("a%d -> p%d\n", a, p)
		}
	}
	if res.Assignment != nil {
		// Capacitated view: one line per post with its assigned applicants.
		for p := int32(0); int(p) < ins.NumPosts; p++ {
			fmt.Printf("p%d <-", p)
			for _, a := range res.Assignment.AssignedTo(p) {
				fmt.Printf(" a%d", a)
			}
			fmt.Printf(" (%d/%d)\n", len(res.Assignment.AssignedTo(p)), ins.Capacity(p))
		}
	}
	fmt.Printf("# size=%d of %d applicants", res.Size, ins.NumApplicants)
	if res.PeelRounds >= 0 {
		fmt.Printf(" peel-rounds=%d", res.PeelRounds)
	}
	fmt.Println()
	if *stats {
		fmt.Printf("# rounds=%d work=%d\n", solveTrace.Rounds, solveTrace.Work)
	}
	if *verify {
		if res.Assignment != nil {
			if err := s.VerifyAssignment(ctx, ins, res.Assignment); err != nil {
				failVerification(err)
			}
		} else {
			if ins.Strict() {
				if err := s.Verify(ctx, ins, res.Matching); err != nil {
					failVerification(err)
				}
			}
			margin, err := s.UnpopularityMargin(ctx, ins, res.Matching)
			if err != nil {
				log.Fatal(err) // -timeout bounds the oracle too
			}
			if margin > 0 {
				failVerification(fmt.Errorf("margin oracle rejects the matching: challenger margin %d", margin))
			}
		}
		fmt.Println("# verified popular")
	}
}
