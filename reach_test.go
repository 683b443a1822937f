package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachKeep is the only list of code that no binary links and that stays
// as an independent reference: the brute-force oracles, the sequential and
// PRAM-model baselines, the §IV-A cycle methods and the paper's fixtures.
// Each entry names the code — a package directory, a file, or a function
// ("dir.F", "dir.T.M") — and a test that needs it ("dir.TestName").
var reachKeep = []struct{ code, test string }{
	{"internal/seq", "internal/core.TestPopularDifferentialMedium"},
	{"internal/pram", "internal/pram.TestBuildReducedMatchesCoreRandom"},
	{"internal/pseudoforest/cycles.go", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/gf2", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/bitmat", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/concomp", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/par.Double", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/par.RowGrain", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/par.Pool.For", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/par.Pool.ForGrain", "internal/pseudoforest.TestCycleMethodsAgree"},
	{"internal/onesided/brute.go", "internal/onesided.TestOracleAgreesWithBruteForce"},
	{"internal/onesided/brutecap.go", "internal/onesided.TestAssignmentPopularityBruteAgreesWithOracle"},
	{"internal/onesided.UnpopularityMargin", "internal/onesided.TestOracleAgreesWithBruteForce"},
	{"internal/onesided.CompareVotes", "internal/onesided.TestPrefersAndVotes"},
	{"internal/onesided.CompareVotesPostOf", "internal/onesided.TestPrefersAndVotes"},
	{"internal/onesided.Prefers", "internal/onesided.TestPrefersAndVotes"},
	{"internal/onesided.MorePopular", "internal/onesided.TestPrefersAndVotes"},
	{"internal/onesided.CompareRankMaximal", "internal/core.TestRankMaximalAndFairOptimalAmongAllPopular"},
	{"internal/onesided.CompareFair", "internal/core.TestRankMaximalAndFairOptimalAmongAllPopular"},
	{"internal/onesided.RandomSmall", "internal/onesided.TestOracleAgreesWithBruteForce"},
	{"internal/onesided.RandomSmallCapacitated", "internal/core.TestSolveCapacitatedAgainstBruteOracle"},
	{"internal/onesided.PaperFigure1Matching", "internal/core.TestPaperFigure1PopularMatching"},
	{"internal/core.PopularViaMatching", "internal/core.TestPopularViaMatchingDifferential"},
	{"internal/stable.AllStableBrute", "internal/stable.TestNextMatchingsCoverAllImmediateSuccessors"},
	{"internal/stable.PaperFigure6Reduced", "internal/stable.TestPaperFigure6ReducedLists"},
	{"internal/obs.HistSnapshot.Merge", "internal/obs.TestHistogramHammer"},
	{"internal/obs.HistSnapshot.Quantile", "internal/obs.TestQuantile"},
}

// TestEveryFunctionReached keeps the module to the code something runs. It
// builds every shipped binary (cmd/*, examples/*, the benchmark) and a
// generated main that names every exported function, var and method of the
// public packages (popmatch, stablematch, and the types they alias), all
// with inlining off, and reads the linked symbols with `go tool nm`. It
// fails on a function declared in a non-test file outside benchmark/ that
// no binary links and no reachKeep entry covers, on an entry that covers a
// linked function or nothing at all, and on an entry whose test does not
// exist. Files this platform's default build leaves out (the -tags debug
// checker, mmap_other.go) are not checked. Skipped under -short, as the CLI
// tests are.
func TestEveryFunctionReached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	decls := declaredFuncs(t, root)
	bin := t.TempDir()
	goBuild(t, root, "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goBuild(t, filepath.Join(root, "benchmark"), "-o", filepath.Join(bin, "benchmark"), ".")
	goBuild(t, apiModule(t, root), "-o", filepath.Join(bin, "apiref"), ".")
	linked := linkedFuncs(t, bin)
	isLinked := func(d funcDecl) bool { return linked[d.binary][d.symbol] }

	for _, d := range decls {
		if !isLinked(d) && keepEntry(d) < 0 {
			t.Errorf("%s:%d: no binary links %s.%s; call it, delete it, or name it in reachKeep with the test that needs it",
				d.file, d.line, d.pkg, d.name)
		}
	}
	covers := make([][]funcDecl, len(reachKeep))
	for _, d := range decls {
		if i := keepEntry(d); i >= 0 {
			covers[i] = append(covers[i], d)
		}
	}
	tests := map[string]map[string]bool{}
	for i, k := range reachKeep {
		if len(covers[i]) == 0 {
			t.Errorf("reachKeep entry %q names nothing declared", k.code)
		}
		for _, d := range covers[i] {
			if isLinked(d) {
				t.Errorf("reachKeep entry %q covers %s.%s, which a binary links", k.code, d.pkg, d.name)
			}
		}
		dot := strings.LastIndex(k.test, ".")
		dir, name := k.test[:dot], k.test[dot+1:]
		if tests[dir] == nil {
			tests[dir] = testFuncs(t, filepath.Join(root, dir))
		}
		if !tests[dir][name] {
			t.Errorf("reachKeep entry %q names test %s, which does not exist", k.code, k.test)
		}
	}
}

// funcDecl is one function or method declared in a non-test file.
type funcDecl struct {
	file   string // path relative to the module root
	line   int
	pkg    string // directory relative to the module root
	name   string // "F" or "T.M"
	binary string // the binary a main package builds; "" for a library
	symbol string // as symbolKeys normalizes the linked symbol
}

// keepEntry returns the index of the reachKeep entry covering d, or -1.
func keepEntry(d funcDecl) int {
	for i, k := range reachKeep {
		if k.code == d.pkg || k.code == d.file || k.code == d.pkg+"."+d.name {
			return i
		}
	}
	return -1
}

// declaredFuncs parses every non-test Go file of the module outside
// benchmark/ and testdata that this platform's default build compiles.
func declaredFuncs(t *testing.T, root string) []funcDecl {
	t.Helper()
	var out []funcDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		pkg := filepath.ToSlash(rel)
		if pkg != "." && (pkg == "benchmark" || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
			return filepath.SkipDir
		}
		for _, f := range parseDir(t, fset, path) {
			importPath, binary := "repro/"+pkg, ""
			if pkg == "." {
				importPath = "repro"
			}
			if f.Name.Name == "main" {
				importPath, binary = "main", e.Name()
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					name = recvName(fn.Recv.List[0].Type) + "." + name
				}
				pos := fset.Position(fn.Pos())
				file, _ := filepath.Rel(root, pos.Filename)
				out = append(out, funcDecl{
					file:   filepath.ToSlash(file),
					line:   pos.Line,
					pkg:    pkg,
					name:   name,
					binary: binary,
					symbol: importPath + "." + name,
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// isBuiltSource reports whether name in dir is a non-test Go file that this
// platform's default build compiles.
func isBuiltSource(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// recvName is the bare type name of a method receiver: T for T, *T, T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprint(x)
		}
	}
}

// goBuild runs go build in dir with inlining off, so every function a
// binary calls stays a symbol of its own, and without DWARF, which nm does
// not read.
func goBuild(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-ldflags=-w"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
}

// apiModule writes a module whose main references every exported function,
// var and method of popmatch and stablematch, and every exported method of
// the types they alias, so that the linker keeps exactly what the public
// API reaches.
func apiModule(t *testing.T, root string) string {
	t.Helper()
	var refs []string
	fset := token.NewFileSet()
	for _, pkg := range []string{"popmatch", "stablematch"} {
		for _, f := range parseDir(t, fset, filepath.Join(root, pkg)) {
			imports := map[string]string{}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				name := filepath.Base(path)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = path
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					switch {
					case !d.Name.IsExported():
					case d.Recv == nil:
						refs = append(refs, pkg+"."+d.Name.Name)
					case ast.IsExported(recvName(d.Recv.List[0].Type)):
						refs = append(refs, fmt.Sprintf("(*%s.%s).%s", pkg, recvName(d.Recv.List[0].Type), d.Name.Name))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if d.Tok == token.VAR && n.IsExported() {
									refs = append(refs, pkg+"."+n.Name)
								}
							}
						case *ast.TypeSpec:
							sel, ok := s.Type.(*ast.SelectorExpr)
							if !ok || !s.Assign.IsValid() || !s.Name.IsExported() {
								continue
							}
							target, ok := strings.CutPrefix(imports[fmt.Sprint(sel.X)], "repro/")
							if !ok {
								continue
							}
							for _, m := range exportedMethods(t, fset, filepath.Join(root, target), sel.Sel.Name) {
								refs = append(refs, fmt.Sprintf("(*%s.%s).%s", pkg, s.Name.Name, m))
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(refs)
	var src bytes.Buffer
	src.WriteString("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\n\t\"repro/popmatch\"\n\t\"repro/stablematch\"\n)\n\nvar api = []any{\n")
	for _, r := range refs {
		fmt.Fprintf(&src, "\t%s,\n", r)
	}
	// The references must be live: main prints them when given arguments.
	src.WriteString("}\n\nfunc main() {\n\tif len(os.Args) > 1 {\n\t\tfmt.Println(api...)\n\t}\n}\n")
	dir := t.TempDir()
	gomod := fmt.Sprintf("module apiref\n\ngo 1.24\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", root)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// exportedMethods lists the exported methods declared on type typ in dir.
func exportedMethods(t *testing.T, fset *token.FileSet, dir, typ string) []string {
	t.Helper()
	var out []string
	for _, f := range parseDir(t, fset, dir) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.IsExported() && recvName(fn.Recv.List[0].Type) == typ {
				out = append(out, fn.Name.Name)
			}
		}
	}
	return out
}

// parseDir parses the non-test files of dir that the default build compiles.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*ast.File
	for _, e := range entries {
		if !isBuiltSource(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// testFuncs lists the Test, Benchmark and Fuzz functions of dir's test files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					out[fn.Name.Name] = true
				}
			}
		}
	}
	return out
}

// linkedFuncs maps each binary in dir to the main-package symbols `go tool
// nm` lists for it, and "" to the union over all binaries of this module's
// library symbols, each normalized by symbolKeys.
func linkedFuncs(t *testing.T, dir string) map[string]map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]map[string]bool{"": {}}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		own := map[string]bool{}
		linked[e.Name()] = own
		for _, line := range strings.Split(string(out), "\n") {
			// address, kind, name; T and t are text (function) symbols.
			parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(parts) != 3 || (parts[1] != "T" && parts[1] != "t") {
				continue
			}
			for _, key := range symbolKeys(parts[2]) {
				switch {
				case strings.HasPrefix(key, "main."):
					own[key] = true
				case strings.HasPrefix(key, "repro/"), strings.HasPrefix(key, "repro."):
					linked[""][key] = true
				}
			}
		}
	}
	return linked
}

// symbolKeys normalizes a linked symbol to the declarations it proves
// linked: type arguments, the "(*T)" of pointer receivers and the "-fm" of
// method values are dropped, and a closure "F.func1" proves F as well.
func symbolKeys(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	var keys []string
	for i := strings.LastIndex(s, "/") + 1; i < len(s); i++ {
		if s[i] == '.' {
			keys = append(keys, s[:i])
		}
	}
	return append(keys, s)
}
