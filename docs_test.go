package repro

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents whose code references must resolve. ROADMAP.md and
// CHANGES.md name deleted code on purpose and are not checked.
var checkedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var (
	fencedBlock = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	// goPath is a file reference: the base name starts with a letter or
	// digit, so a suffix pattern such as `_test.go` is not one.
	goPath = regexp.MustCompile(`(?:^|[^\w./-])((?:[\w.-]+/)*[A-Za-z0-9][\w-]*\.go)(?::(\d+))?`)
	pkgRef = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	// testRef is a test, benchmark or fuzz target; a trailing * makes it a
	// prefix. testDecl finds the ones a _test.go file declares.
	testRef  = regexp.MustCompile(`(?:^|\W)((?:Test|Benchmark|Fuzz)[A-Z_]\w*)(\*?)`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z_]\w*)\(`)
	skipDir  = map[string]bool{".git": true, ".bench_build": true}
)

// repoTree is what a doc reference resolves against: every .go file's
// slash path with its line count, the top-level identifiers of each
// non-main package, keyed by package name, from its non-test files, and the
// test, benchmark and fuzz functions of every _test.go file. Method names
// count as declared, so the docs' shorthand `model.Evaluate` for
// (*Instance).Evaluate resolves.
type repoTree struct {
	lines    map[string]int
	declared map[string]map[string]bool
	tests    map[string]bool
}

func scanTree(t *testing.T) *repoTree {
	t.Helper()
	tree := &repoTree{lines: map[string]int{}, declared: map[string]map[string]bool{}, tests: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		tree.lines[slash] = bytes.Count(src, []byte("\n"))
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testDecl.FindAllSubmatch(src, -1) {
				tree.tests[string(m[1])] = true
			}
			return nil
		}
		if strings.Contains(slash, "testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		names := tree.declared[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			tree.declared[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// maxLines returns the longest line count among the files whose path is ref
// or ends in "/"+ref, and whether any matched.
func (tree *repoTree) maxLines(ref string) (int, bool) {
	n, found := 0, false
	for path, lines := range tree.lines {
		if path == ref || strings.HasSuffix(path, "/"+ref) {
			n, found = max(n, lines), true
		}
	}
	return n, found
}

// hasTest reports whether some _test.go file declares name, or with prefix
// set, a function whose name starts with it.
func (tree *repoTree) hasTest(name string, prefix bool) bool {
	if !prefix {
		return tree.tests[name]
	}
	for fn := range tree.tests {
		if strings.HasPrefix(fn, name) {
			return true
		}
	}
	return false
}

// docProblems lists every unresolved reference in the inline code spans of
// doc: a .go path naming no file, a path.go:N past the end of every file it
// names, a pkg.Ident whose package declares no Ident, and a Test*,
// Benchmark* or Fuzz* name no _test.go file declares. A test name qualified
// by its package (`partition.BenchmarkBuild`) is checked as a test name.
func (tree *repoTree) docProblems(doc string) []string {
	var out []string
	for _, span := range codeSpan.FindAllStringSubmatch(fencedBlock.ReplaceAllString(doc, ""), -1) {
		code := span[1]
		for _, m := range goPath.FindAllStringSubmatch(code, -1) {
			lines, found := tree.maxLines(m[1])
			switch {
			case !found:
				out = append(out, "no file "+m[1])
			case m[2] != "":
				if n, _ := strconv.Atoi(m[2]); n > lines {
					out = append(out, m[1]+":"+m[2]+" is past the end ("+strconv.Itoa(lines)+" lines)")
				}
			}
		}
		for _, m := range pkgRef.FindAllStringSubmatch(code, -1) {
			if names, ok := tree.declared[m[1]]; ok && !names[m[2]] && !testRef.MatchString(m[2]) {
				out = append(out, m[1]+"."+m[2]+" is not declared")
			}
		}
		for _, m := range testRef.FindAllStringSubmatch(code, -1) {
			if !tree.hasTest(m[1], m[2] == "*") {
				out = append(out, "no test function "+m[1]+m[2])
			}
		}
	}
	return out
}

// TestDocReferencesResolve keeps DESIGN.md, README.md and EXPERIMENTS.md
// from naming code that is not in the tree.
func TestDocReferencesResolve(t *testing.T) {
	tree := scanTree(t)
	for _, name := range checkedDocs {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tree.docProblems(string(doc)) {
			t.Errorf("%s: %s", name, p)
		}
	}
}

// TestDocReferenceRules pins what the scan reports on a synthetic document.
func TestDocReferenceRules(t *testing.T) {
	tree := &repoTree{
		lines:    map[string]int{"internal/model/model.go": 100},
		declared: map[string]map[string]bool{"model": {"Instance": true}},
		tests:    map[string]bool{"TestEvaluate": true, "BenchmarkEvaluateRouted": true},
	}
	doc := "`model.go` `internal/model/model.go:100` `model.Instance.Evaluate` " +
		"`_test.go` `combine.run_ms` `fmt.Println` `s.model.Gone` `Testbed`\n" +
		"`go test -run TestEvaluate` `BenchmarkEvaluate*` `model.BenchmarkEvaluateRouted/greedy`\n" +
		"```\n`gone.go` `TestGone`\n```\n" +
		"`gone.go` `model/model.go:101` `model.Gone(x)` `TestEvaluateGone` `FuzzEvaluate*`"
	got := tree.docProblems(doc)
	want := []string{
		"no file gone.go",
		"model/model.go:101 is past the end (100 lines)",
		"model.Gone is not declared",
		"no test function TestEvaluateGone",
		"no test function FuzzEvaluate*",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
