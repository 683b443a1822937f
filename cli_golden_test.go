package repro

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Golden-file tests pin the exact stdout of the command-line tools on
// committed fixtures, so the output format (including the capacitated
// per-post assignment lists and the `c` capacity header) cannot drift
// silently. Regenerate with:
//
//	go test -run TestCLIGolden -update-golden
//
// All runs use -workers 1 where applicable, which the API documents as
// fully deterministic.

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/golden")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestCLIGoldenPopmatchCapacitated(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	out, err := runTool(t, "", "./cmd/popmatch", "-workers", "1", "-verify", "testdata/cap_contended.txt")
	if err != nil {
		t.Fatalf("popmatch: %v\n%s", err, out)
	}
	checkGolden(t, "popmatch_cap_contended.out", out)

	out, err = runTool(t, "", "./cmd/popmatch", "-workers", "1", "-mode", "maxcard", "testdata/cap_contended.txt")
	if err != nil {
		t.Fatalf("popmatch -mode maxcard: %v\n%s", err, out)
	}
	checkGolden(t, "popmatch_cap_contended_maxcard.out", out)
}

func TestCLIGoldenPopmatchUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	out, err := runTool(t, "", "./cmd/popmatch", "-workers", "1", "-verify", "testdata/unit_small.txt")
	if err != nil {
		t.Fatalf("popmatch: %v\n%s", err, out)
	}
	checkGolden(t, "popmatch_unit_small.out", out)
}

// TestCLIGoldenPopmatchCheck pins the -check verification surface on the
// capacitated fixture: a known-bad assignment must exit with the dedicated
// verification-failure code (3) and the clear diagnostic, and the committed
// golden solve output must verify clean when fed back in.
func TestCLIGoldenPopmatchCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	run := buildTool(t, "./cmd/popmatch")

	// The committed bad assignment (everyone on their last resort) is
	// structurally valid but maximally unpopular.
	out, code := run("-workers", "1", "-check", "testdata/cap_contended_bad.assign", "testdata/cap_contended.txt")
	if code != 3 {
		t.Fatalf("-check of bad assignment exited %d, want 3\n%s", code, out)
	}
	checkGolden(t, "popmatch_check_bad.out", out)

	// The committed golden solve output round-trips through -check.
	out, code = run("-workers", "1", "-check", "testdata/golden/popmatch_cap_contended.out", "testdata/cap_contended.txt")
	if code != 0 {
		t.Fatalf("-check of golden output exited %d\n%s", code, out)
	}
	checkGolden(t, "popmatch_check_good.out", out)

	// An over-capacity assignment fails structurally, same exit code.
	if out, code = run("-workers", "1", "-check", "testdata/cap_overfull.assign", "testdata/cap_contended.txt"); code != 3 {
		t.Fatalf("-check of over-capacity assignment exited %d, want 3\n%s", code, out)
	}
	checkGolden(t, "popmatch_check_overfull.out", out)

	// A post off the applicant's list fails structurally too, and the
	// diagnostic names no internal package.
	out, code = run("-workers", "1", "-check", "testdata/unit_off_list.assign", "testdata/unit_small.txt")
	if code != 3 {
		t.Fatalf("-check of off-list assignment exited %d, want 3\n%s", code, out)
	}
	if want := "popmatch: verification failed: applicant 0 assigned post 2 not on their list\n"; out != want {
		t.Fatalf("-check of off-list assignment printed %q, want %q", out, want)
	}
}

func TestCLIGoldenGeninstance(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	out, err := runTool(t, "", "./cmd/geninstance", "-kind", "capacitated",
		"-applicants", "8", "-posts", "5", "-maxlen", "3", "-maxcap", "3", "-seed", "5")
	if err != nil {
		t.Fatalf("geninstance: %v\n%s", err, out)
	}
	checkGolden(t, "geninstance_capacitated.out", out)

	// -maxcap composes with the other kinds.
	out, err = runTool(t, "", "./cmd/geninstance", "-kind", "ties",
		"-applicants", "6", "-posts", "4", "-maxlen", "3", "-maxcap", "2", "-seed", "9")
	if err != nil {
		t.Fatalf("geninstance -kind ties: %v\n%s", err, out)
	}
	checkGolden(t, "geninstance_ties_maxcap.out", out)

	// The historical unit format is pinned too: no capacity header.
	out, err = runTool(t, "", "./cmd/geninstance", "-kind", "solvable",
		"-applicants", "6", "-posts", "8", "-maxlen", "3", "-seed", "7")
	if err != nil {
		t.Fatalf("geninstance -kind solvable: %v\n%s", err, out)
	}
	checkGolden(t, "geninstance_solvable.out", out)
}

// TestCLICapacitatedPipeline pipes geninstance -maxcap output straight into
// popmatch, covering the `c` header through both binaries.
func TestCLICapacitatedPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	instance, err := runTool(t, "", "./cmd/geninstance", "-kind", "capacitated",
		"-applicants", "20", "-posts", "10", "-maxlen", "4", "-maxcap", "4", "-seed", "11")
	if err != nil {
		t.Fatalf("geninstance: %v\n%s", err, instance)
	}
	out, err := runTool(t, instance, "./cmd/popmatch", "-workers", "1", "-mode", "tiesmax", "-verify")
	if err != nil {
		t.Fatalf("popmatch: %v\n%s", err, out)
	}
	for _, want := range []string{"a0 ->", "p0 <-", "# verified popular"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// buildTool compiles one command into the test's temporary directory and
// returns a runner reporting combined output and exit code. It runs the
// built binary directly because `go run` flattens exit codes to 1.
func buildTool(t *testing.T, pkg string) func(args ...string) (string, int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return func(args ...string) (string, int) {
		t.Helper()
		var buf bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return buf.String(), code
	}
}

// TestCLIGoldenPopmatchModeAliases pins the mode spellings -mode accepts:
// rankmaximal and its historical spelling rankmax produce byte-identical
// output (one committed golden file), and -mode reaches the weighted
// surfaces too.
func TestCLIGoldenPopmatchModeAliases(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	run := buildTool(t, "./cmd/popmatch")
	for _, mode := range []string{"rankmaximal", "rankmax"} {
		out, code := run("-workers", "1", "-mode", mode, "testdata/unit_small.txt")
		if code != 0 {
			t.Fatalf("-mode %s exited %d\n%s", mode, code, out)
		}
		checkGolden(t, "popmatch_unit_small_rankmax.out", out)
	}

	if out, code := run("-workers", "1", "-mode", "minweight", "-verify", "testdata/unit_small.txt"); code != 0 {
		t.Fatalf("-mode minweight exited %d\n%s", code, out)
	} else if !strings.Contains(out, "# verified popular") {
		t.Fatalf("minweight solve did not verify:\n%s", out)
	}
}

// TestCLIGoldenPopmatchStats pins -stats: its round and work totals on the
// unit fixture, and that with -trace as well it prints the totals of the
// trace table rather than zeros.
func TestCLIGoldenPopmatchStats(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	run := buildTool(t, "./cmd/popmatch")
	out, code := run("-workers", "1", "-stats", "testdata/unit_small.txt")
	if code != 0 {
		t.Fatalf("-stats exited %d\n%s", code, out)
	}
	checkGolden(t, "popmatch_unit_small_stats.out", out)

	for _, mode := range []string{"popular", "maxcard"} {
		out, code = run("-workers", "1", "-stats", "-trace", "-mode", mode, "testdata/unit_small.txt")
		if code != 0 {
			t.Fatalf("-stats -trace -mode %s exited %d\n%s", mode, code, out)
		}
		var rounds, work int64
		var stats string
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[0] == "#" && f[1] == "total" {
				rounds, _ = strconv.ParseInt(f[2], 10, 64)
				work, _ = strconv.ParseInt(f[3], 10, 64)
			}
			if strings.HasPrefix(line, "# rounds=") {
				stats = line
			}
		}
		if rounds == 0 || work == 0 {
			t.Fatalf("-mode %s: trace table has no totals:\n%s", mode, out)
		}
		if want := fmt.Sprintf("# rounds=%d work=%d", rounds, work); stats != want {
			t.Fatalf("-mode %s: -stats printed %q, trace totals %q\n%s", mode, stats, want, out)
		}
	}
}

// TestExamplesGolden runs the example programs and pins their stdout. The
// batch example prints timings, so only its exit status and its
// "applicants matched" line are checked.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("example integration test")
	}
	for _, name := range []string{"capacitated", "housing", "lattice", "quickstart", "residents", "ties"} {
		t.Run(name, func(t *testing.T) {
			out, err := runTool(t, "", "./examples/"+name)
			if err != nil {
				t.Fatalf("example %s: %v\n%s", name, err, out)
			}
			checkGolden(t, "example_"+name+".out", out)
		})
	}
	out, err := runTool(t, "", "./examples/batch")
	if err != nil {
		t.Fatalf("example batch: %v\n%s", err, out)
	}
	if !strings.Contains(out, "applicants matched") {
		t.Fatalf("example batch: no \"applicants matched\" line:\n%s", out)
	}
}
