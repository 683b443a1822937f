package repro

import (
	"bytes"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/popmatch"
)

// End-to-end tests of the command-line tools, run via `go run` so they
// exercise exactly what a user invokes. Skipped under -short.

func runTool(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

func TestCLIGenerateAndSolvePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	instance, err := runTool(t, "", "./cmd/geninstance", "-kind", "solvable",
		"-applicants", "20", "-posts", "30", "-maxlen", "4", "-seed", "7")
	if err != nil {
		t.Fatalf("geninstance: %v\n%s", err, instance)
	}
	if !strings.HasPrefix(instance, "posts 30") {
		t.Fatalf("unexpected instance header:\n%s", instance)
	}
	for _, mode := range []string{"popular", "maxcard", "fair", "rankmax", "ties", "tiesmax"} {
		out, err := runTool(t, instance, "./cmd/popmatch", "-mode", mode, "-verify", "-stats")
		if err != nil {
			t.Fatalf("popmatch -mode %s: %v\n%s", mode, err, out)
		}
		if !strings.Contains(out, "# verified popular") {
			t.Fatalf("mode %s: verification line missing:\n%s", mode, out)
		}
		if !strings.Contains(out, "a0 ->") {
			t.Fatalf("mode %s: assignments missing:\n%s", mode, out)
		}
	}
}

// TestCLIBinaryFormatPipeline pins the cross-format CLI contract:
// geninstance -format binary emits the binary encoding, popmatch
// auto-detects it by magic, and the solve output is byte-identical to the
// text pipeline over the same generated instance.
func TestCLIBinaryFormatPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	gen := []string{"./cmd/geninstance", "-kind", "ties",
		"-applicants", "25", "-posts", "20", "-maxlen", "4", "-tieprob", "0.4", "-seed", "9"}
	textIns, err := runTool(t, "", gen...)
	if err != nil {
		t.Fatalf("geninstance: %v\n%s", err, textIns)
	}
	binIns, err := runTool(t, "", append(gen, "-format", "binary")...)
	if err != nil {
		t.Fatalf("geninstance -format binary: %v", err)
	}
	if !strings.HasPrefix(binIns, "\x89PMC") {
		t.Fatalf("binary output does not start with the magic: %q", binIns[:min(16, len(binIns))])
	}
	fromText, err := runTool(t, textIns, "./cmd/popmatch", "-mode", "tiesmax", "-verify")
	if err != nil {
		t.Fatalf("popmatch over text: %v\n%s", err, fromText)
	}
	fromBinary, err := runTool(t, binIns, "./cmd/popmatch", "-mode", "tiesmax", "-verify")
	if err != nil {
		t.Fatalf("popmatch over binary: %v\n%s", err, fromBinary)
	}
	if fromText != fromBinary {
		t.Fatalf("solve output differs across formats:\ntext:\n%s\nbinary:\n%s", fromText, fromBinary)
	}
}

func TestCLIUnsolvableExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	instance, err := runTool(t, "", "./cmd/geninstance", "-kind", "unsolvable", "-depth", "2")
	if err != nil {
		t.Fatalf("geninstance: %v", err)
	}
	out, err := runTool(t, instance, "./cmd/popmatch")
	if err == nil {
		t.Fatalf("popmatch should exit non-zero on unsolvable instances:\n%s", out)
	}
	if !strings.Contains(out, "no popular matching exists") {
		t.Fatalf("missing diagnostic:\n%s", out)
	}
}

func TestCLIStableNext(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	out, err := runTool(t, "", "./cmd/stablenext", "-n", "0")
	if err != nil {
		t.Fatalf("stablenext: %v\n%s", err, out)
	}
	// The paper instance exposes exactly two rotations.
	if !strings.Contains(out, "rotation 0:") || !strings.Contains(out, "rotation 1:") {
		t.Fatalf("expected two rotations:\n%s", out)
	}
	walk, err := runTool(t, "", "./cmd/stablenext", "-n", "0", "-walk")
	if err != nil {
		t.Fatalf("stablenext -walk: %v\n%s", err, walk)
	}
	// The walk starts from the paper's underlined M (not the man-optimal
	// matching), from which the chain to the woman-optimal matching has
	// five elements.
	if !strings.Contains(walk, "# chain length 5") {
		t.Fatalf("paper instance chain from M should have length 5:\n%s", walk)
	}
}

// TestCLIGenInstanceScaling smoke-tests geninstance across the sizes the
// large benchmark scenario needs: output at every n must start with the
// right header, parse back, and carry exactly n applicants — guarding the
// buffered streaming path that keeps generation from dominating benchmark
// setup.
func TestCLIGenInstanceScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	for _, n := range []int{100, 5000, 100000} {
		out, err := runTool(t, "", "./cmd/geninstance", "-kind", "random",
			"-applicants", strconv.Itoa(n), "-posts", strconv.Itoa(n), "-maxlen", "5", "-seed", "11")
		if err != nil {
			t.Fatalf("geninstance n=%d: %v\n%s", n, err, out)
		}
		if !strings.HasPrefix(out, "posts "+strconv.Itoa(n)+"\n") {
			t.Fatalf("n=%d: unexpected header: %.80q", n, out)
		}
		ins, err := popmatch.Read(strings.NewReader(out))
		if err != nil {
			t.Fatalf("n=%d: generated instance does not parse: %v", n, err)
		}
		if ins.NumApplicants != n || ins.NumPosts != n {
			t.Fatalf("n=%d: parsed %d applicants / %d posts", n, ins.NumApplicants, ins.NumPosts)
		}
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	// The mode error speaks the CLI's language, not an internal package's.
	out, err := runTool(t, "posts 1\na0: p0\n", "./cmd/popmatch", "-mode", "nonsense")
	if err == nil {
		t.Fatalf("bad mode accepted:\n%s", out)
	}
	if !strings.HasPrefix(out, `popmatch: unknown mode "nonsense" (valid: popular,`) {
		t.Fatalf("bad mode error = %q", out)
	}
	if out, err := runTool(t, "", "./cmd/geninstance", "-kind", "nonsense"); err == nil {
		t.Fatalf("bad kind accepted:\n%s", out)
	}
	// So does an invalid instance: the row rule's text, no package name.
	out, err = runTool(t, "posts 1\na0: p5\n", "./cmd/popmatch")
	if err == nil || !strings.HasPrefix(out, "popmatch: applicant 0 lists out-of-range post 5\n") {
		t.Fatalf("out-of-range post: err %v, output %q", err, out)
	}
	// And a mode the instance's shape rules out: popular on tied lists.
	out, err = runTool(t, "posts 2\na0: (p0 p1)\na1: p0\n", "./cmd/popmatch", "-mode", "popular")
	if err == nil || !strings.HasPrefix(out, "popmatch: Algorithm 1 requires strictly-ordered preference lists\n") {
		t.Fatalf("popular on tied lists: err %v, output %q", err, out)
	}
	// Out-of-range sizes exit non-zero with a message, never a panic.
	for _, args := range [][]string{
		{"./cmd/stablenext", "-n", "-3"},
		{"./cmd/geninstance", "-applicants", "5", "-posts", "0"},
		{"./cmd/geninstance", "-kind", "capacitated", "-applicants", "3", "-posts", "0"},
		{"./cmd/geninstance", "-applicants", "-5"},
		{"./cmd/geninstance", "-kind", "ties", "-maxlen", "0"},
		{"./cmd/geninstance", "-kind", "solvable", "-maxlen", "0"},
		{"./cmd/geninstance", "-kind", "unsolvable", "-depth", "-2"},
		{"./cmd/geninstance", "-kind", "unsolvable", "-depth", "4000000000000000000"},
		{"./cmd/geninstance", "-kind", "broom", "-depth", "63"},
		{"./cmd/geninstance", "-applicants", "5", "-posts", "3000000000"},
	} {
		out, err := runTool(t, "", args...)
		if err == nil || strings.Contains(out, "panic:") {
			t.Errorf("%s: err %v, output %q", strings.Join(args, " "), err, out)
		}
	}
}
