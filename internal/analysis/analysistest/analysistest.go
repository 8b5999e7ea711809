// Package analysistest runs a socllint analyzer over GOPATH-style fixture
// packages and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for the stdlib-only framework
// in internal/analysis.
//
// Fixture layout: <testdata>/src/<pkg>/*.go, the package's own _test.go files
// included. A line expecting diagnostics
// carries a trailing comment of the form
//
//	// want "regexp" "another regexp"
//
// with one quoted regexp per expected diagnostic on that line. Every
// diagnostic must be matched by a want and every want must match a
// diagnostic; suppression via //socllint:ignore is applied before matching,
// so a fixture line carrying a valid ignore directive and no want comment
// asserts that the directive is honored.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads each fixture package beneath testdata/src, applies the analyzer,
// and reports want/got mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := load.New(load.Config{FixtureRoots: []string{filepath.Join(testdata, "src")}, IncludeTests: true})
	for _, pkg := range pkgs {
		p, err := loader.Load(pkg)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
		res, err := analysis.Run(p.Target(), []*analysis.Analyzer{a}, loader.FuncDirectives)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg, err)
		}
		checkPackage(t, p, res.Diagnostics)
	}
}

func checkPackage(t *testing.T, p *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	expects := collectWants(t, p)
	for _, d := range diags {
		pos := d.Position(p.Fset)
		if !claim(expects, pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
		}
	}
}

func claim(expects []*expectation, pos token.Position, msg string) bool {
	for _, e := range expects {
		if e.matched || e.file != pos.Filename || e.line != pos.Line {
			continue
		}
		if e.rx.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

func collectWants(t *testing.T, p *load.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range p.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s: malformed want comment: %s", pos, c.Text)
				}
				for _, arg := range args {
					raw := unquoteWant(arg[1])
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, rx: rx, raw: raw})
				}
			}
		}
	}
	return out
}

// unquoteWant undoes the minimal escaping the want syntax allows (\" and \\).
func unquoteWant(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) && (s[i+1] == '"' || s[i+1] == '\\') {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
