package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
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
// (*Instance).Evaluate resolves. dirs holds every directory, and pkgDirs
// those with non-test Go outside bench/ (a module of its own) and testdata/:
// the directories DESIGN.md's module map must cover.
type repoTree struct {
	lines    map[string]int
	declared map[string]map[string]bool
	tests    map[string]bool
	dirs     map[string]bool
	pkgDirs  map[string]bool
}

func scanTree(t *testing.T) *repoTree {
	t.Helper()
	tree := &repoTree{lines: map[string]int{}, declared: map[string]map[string]bool{}, tests: map[string]bool{},
		dirs: map[string]bool{}, pkgDirs: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir[d.Name()] {
				return filepath.SkipDir
			}
			tree.dirs[filepath.ToSlash(path)] = true
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
		if !strings.HasPrefix(slash, "bench/") {
			tree.pkgDirs[filepath.ToSlash(filepath.Dir(path))] = true
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

// unclosedSpans lists the lines of doc, outside fenced blocks, with an odd
// number of backticks: a code span there is left open or wraps onto the
// next line, where codeSpan, which stops at a line break, never checks it.
func unclosedSpans(doc string) []string {
	var out []string
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced && strings.Count(line, "`")%2 == 1 {
			out = append(out, fmt.Sprintf("line %d: a code span is not closed on its line", i+1))
		}
	}
	return out
}

// docProblems lists every unclosed code span of doc (unclosedSpans) and
// every unresolved reference in its inline code spans: a .go path naming no
// file, a path.go:N past the end of every file it names, a pkg.Ident whose
// package declares no Ident, and a Test*, Benchmark* or Fuzz* name no
// _test.go file declares. A test name qualified by its package
// (`partition.BenchmarkBuild`) is checked as a test name.
func (tree *repoTree) docProblems(doc string) []string {
	out := unclosedSpans(doc)
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

// DESIGN.md's bounds. Past them the file turns from a map of the tree back
// into a history of it; CHANGES.md is where history goes.
const (
	maxDesignLines = 600
	maxDesignBytes = 48 << 10
)

var (
	level2Heading = regexp.MustCompile(`(?m)^## (.*)$`)
	sectionHead   = regexp.MustCompile(`(?m)^## (\d+)\. `)
	moduleMapHead = regexp.MustCompile(`(?mi)^## \d+\. .*module map.*$`)
	// mapRow is a module-map row; its first cell names a directory.
	mapRow    = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	prMention = regexp.MustCompile(`\bPRs?[ #-]*\d+`)
	// designRef cites DESIGN.md sections from another file: "DESIGN.md §9",
	// "`DESIGN.md` §9", "DESIGN.md §9, §10", and a Go comment that breaks
	// the line between the name and the number.
	designRef  = regexp.MustCompile("DESIGN\\.md`?(?:\\s|//|#)*(§\\d+(?:(?:,\\s*|\\s+and\\s+)§\\d+)*)")
	sectionNum = regexp.MustCompile(`§(\d+)`)
)

// designShapeProblems lists how doc breaks DESIGN.md's shape: more than
// maxDesignLines lines or maxDesignBytes bytes (the byte cap keeps long
// lines from getting round the line cap), a level-2 heading outside fenced
// blocks that is not "N. Title" with N running 1, 2, … without a gap, or a
// PR named.
func designShapeProblems(doc string) []string {
	var out []string
	lines := strings.Count(doc, "\n")
	if doc != "" && !strings.HasSuffix(doc, "\n") {
		lines++
	}
	if lines > maxDesignLines {
		out = append(out, fmt.Sprintf("%d lines, over %d", lines, maxDesignLines))
	}
	if len(doc) > maxDesignBytes {
		out = append(out, fmt.Sprintf("%d bytes, over %d", len(doc), maxDesignBytes))
	}
	for i, m := range level2Heading.FindAllStringSubmatch(fencedBlock.ReplaceAllString(doc, ""), -1) {
		if want := strconv.Itoa(i+1) + ". "; !strings.HasPrefix(m[1], want) {
			out = append(out, fmt.Sprintf("heading %q is not numbered %s", "## "+m[1], want))
		}
	}
	for _, pr := range prMention.FindAllString(doc, -1) {
		out = append(out, "names "+pr)
	}
	return out
}

// designSections returns the numbers of doc's "## N." headings.
func designSections(doc string) map[int]bool {
	sections := map[int]bool{}
	for _, m := range sectionHead.FindAllStringSubmatch(fencedBlock.ReplaceAllString(doc, ""), -1) {
		n, _ := strconv.Atoi(m[1])
		sections[n] = true
	}
	return sections
}

// moduleMapProblems lists what the table of doc's module map section (the
// first "## N." heading that names it) gets wrong: a directory of pkgDirs with no row, and a row naming a directory
// not in dirs. A row `dir/...` covers dir and every directory under it.
func moduleMapProblems(doc string, pkgDirs, dirs map[string]bool) []string {
	loc := moduleMapHead.FindStringIndex(doc)
	if loc == nil {
		return []string{"no module map section"}
	}
	section := doc[loc[1]:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var out []string
	exact, trees := map[string]bool{}, []string{}
	for _, m := range mapRow.FindAllStringSubmatch(section, -1) {
		dir, tree := strings.CutSuffix(m[1], "/...")
		dir = strings.TrimSuffix(dir, "/")
		if !dirs[dir] {
			out = append(out, "row "+m[1]+" names no directory")
		}
		if tree {
			trees = append(trees, dir)
		} else {
			exact[dir] = true
		}
	}
	var missing []string
	for dir := range pkgDirs {
		covered := exact[dir]
		for _, root := range trees {
			covered = covered || dir == root || strings.HasPrefix(dir, root+"/")
		}
		if !covered {
			missing = append(missing, "no row for "+dir)
		}
	}
	sort.Strings(missing)
	return append(out, missing...)
}

// sectionRefProblems lists every DESIGN.md section text cites that
// sections lacks. In DESIGN.md itself (self) every §N is a citation;
// elsewhere only one that follows "DESIGN.md". The paper's own sections
// (§IV-C) are not numbered in digits and never match.
func sectionRefProblems(text string, self bool, sections map[int]bool) []string {
	cites := []string{text}
	if !self {
		cites = nil
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			cites = append(cites, m[1])
		}
	}
	var out []string
	for _, c := range cites {
		for _, m := range sectionNum.FindAllStringSubmatch(c, -1) {
			if n, _ := strconv.Atoi(m[1]); !sections[n] {
				out = append(out, "§"+m[1]+" names no heading")
			}
		}
	}
	return out
}

// extID is an extension experiment's ID as EXPERIMENTS.md names it.
var extID = regexp.MustCompile(`\bext_[a-z0-9_]+`)

// experimentsDocProblems lists every registry ID that doc never names as a
// word, and every ext_ ID it names that the registry lacks.
func experimentsDocProblems(doc string, ids []string) []string {
	var out []string
	known := map[string]bool{}
	for _, id := range ids {
		known[id] = true
		if !regexp.MustCompile(`(?:^|\W)` + regexp.QuoteMeta(id) + `(?:\W|$)`).MatchString(doc) {
			out = append(out, "registry entry "+id+" is not described")
		}
	}
	for _, id := range extID.FindAllString(doc, -1) {
		if !known[id] {
			out = append(out, id+" is not in the registry")
			known[id] = true // report it once
		}
	}
	return out
}

// TestExperimentsDocCoversRegistry keeps EXPERIMENTS.md and
// experiments.Registry naming the same experiments.
func TestExperimentsDocCoversRegistry(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range experiments.Registry {
		ids = append(ids, e.ID)
	}
	for _, p := range experimentsDocProblems(string(doc), ids) {
		t.Errorf("EXPERIMENTS.md: %s", p)
	}
}

// TestExperimentsDocRules pins what the registry check reports on a
// synthetic document.
func TestExperimentsDocRules(t *testing.T) {
	doc := "fig2 and `ext_a.csv`; ext_gone twice: ext_gone. fig20 is not fig2's neighbour ext_ab"
	got := experimentsDocProblems(doc, []string{"fig2", "fig1", "ext_a", "ext_ab"})
	want := []string{"registry entry fig1 is not described", "ext_gone is not in the registry"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestDesignDocShape keeps DESIGN.md short, numbered without a gap, and
// free of PR history.
func TestDesignDocShape(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range designShapeProblems(string(doc)) {
		t.Errorf("DESIGN.md: %s", p)
	}
}

// TestDesignModuleMap keeps DESIGN.md's module map one row per package
// directory of the tree.
func TestDesignModuleMap(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	tree := scanTree(t)
	for _, p := range moduleMapProblems(string(doc), tree.pkgDirs, tree.dirs) {
		t.Errorf("DESIGN.md module map: %s", p)
	}
}

// citingFile reports whether a file's DESIGN.md section references must
// resolve: source, scripts, CI files and Markdown, except the root-level
// Markdown outside checkedDocs (the roadmap, the change log and the paper
// notes), which cites sections as they were when it was written, and this
// file, whose rule tests cite missing sections on purpose.
func citingFile(slash string) bool {
	if slash == "docs_test.go" {
		return false
	}
	switch filepath.Ext(slash) {
	case ".go", ".yml", ".yaml", ".sh", ".py":
		return true
	case ".md":
		if strings.Contains(slash, "/") {
			return true
		}
		for _, name := range checkedDocs {
			if slash == name {
				return true
			}
		}
	}
	return false
}

// TestDesignSectionRefs keeps every "DESIGN.md §N" in the tree, and every
// §N inside DESIGN.md, naming one of its headings.
func TestDesignSectionRefs(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := designSections(string(design))
	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(file)
		if d.IsDir() {
			if skipDir[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !citingFile(slash) {
			return nil
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for _, p := range sectionRefProblems(string(src), slash == "DESIGN.md", sections) {
			t.Errorf("%s: %s", slash, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDesignDocRules breaks each DESIGN.md rule on a synthetic document.
func TestDesignDocRules(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	pkgDirs := set("internal/model", "internal/analysis", "internal/analysis/floateq", "internal/serve", "internal/late")
	dirs := set("internal", "internal/model", "internal/analysis", "internal/analysis/floateq", "internal/serve", "internal/late")
	mapDoc := "## 1. Intro\n\n## 2. Module map\n\n| Package | Contents |\n|---|---|\n" +
		"| `internal/model` | evaluator |\n| `internal/analysis/...` | linters |\n| `internal/gone` | deleted |\n\n" +
		"## 3. Next\n\n| `internal/late` | outside the map |\n"
	sections := map[int]bool{1: true, 2: true}
	for _, c := range []struct {
		name string
		got  []string
		want []string
	}{
		{"shape holds", designShapeProblems("# T\n\n## 1. A\n```\n## fenced\n```\n## 2. B\nPRIOR art, PRs\n"), nil},
		{"line cap", designShapeProblems(strings.Repeat("x\n", maxDesignLines+1)), []string{"601 lines, over 600"}},
		{"line cap holds", designShapeProblems(strings.Repeat("x\n", maxDesignLines)), nil},
		{"byte cap holds", designShapeProblems(strings.Repeat("x", maxDesignBytes)), nil},
		{"byte cap", designShapeProblems(strings.Repeat("x", maxDesignBytes+1)), []string{"49153 bytes, over 49152"}},
		{"gap", designShapeProblems("## 1. A\n## 3. C\n"), []string{`heading "## 3. C" is not numbered 2. `}},
		{"unnumbered", designShapeProblems("## 1. A\n## Appendix\n"), []string{`heading "## Appendix" is not numbered 2. `}},
		{"PR named", designShapeProblems("## 1. A\nAs PR 12 did, and PR-1; PRs 47.\n"), []string{"names PR 12", "names PR-1", "names PRs 47"}},
		{"module map", moduleMapProblems(mapDoc, pkgDirs, dirs), []string{"row internal/gone names no directory", "no row for internal/late", "no row for internal/serve"}},
		{"no module map", moduleMapProblems("## 1. A\n", pkgDirs, dirs), []string{"no module map section"}},
		{"cited elsewhere", sectionRefProblems("// DESIGN.md §2, §3 and §1\n// (DESIGN.md\n//\t§4). `DESIGN.md` §2; §5 and the paper's §IV-C.", false, sections),
			[]string{"§3 names no heading", "§4 names no heading"}},
		{"cited in DESIGN.md", sectionRefProblems("As §2 and §5 say; the paper's §IV-C.", true, sections), []string{"§5 names no heading"}},
		{"unclosed span", unclosedSpans("One `span`, then one `wrapped\nacross` a line break.\n```\nfenced ` tick\n```\n`open"),
			[]string{"line 1: a code span is not closed on its line", "line 2: a code span is not closed on its line",
				"line 6: a code span is not closed on its line"}},
	} {
		if strings.Join(c.got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: problems:\n%s\nwant:\n%s", c.name, strings.Join(c.got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}
