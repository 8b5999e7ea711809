package config

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// regimeKeys are the struct fields that set a regime constant. λ and the
// budget are caught as composite-literal keys (model.Instance, sim.Config,
// …); the deadline slack is caught as a key and as an assignment.
var regimeKeys = map[string]bool{"Lambda": true, "Budget": true, "DeadlineSlack": true}

// TestRegimeConstantsLiveInConfig keeps the regime table from forking again:
// outside this package, no non-test Go file may set λ, the budget or the
// deadline slack to a constant. bench/ (its own module, with its own
// builders) and the generator's own default, msvc.DefaultWorkloadConfig,
// are exempt. Values read from a preset, a config field or a sweep variable
// pass.
func TestRegimeConstantsLiveInConfig(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	var found []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel == "bench" || rel == filepath.Join("internal", "config") || d.Name() == "testdata" ||
			(rel != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		hits, err := regimeLiteralsInDir(path, filepath.ToSlash(rel))
		found = append(found, hits...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: regime constant outside internal/config (read it from a config preset)", f)
	}
}

// regimeLiteralsInDir parses the non-test Go files of one package directory
// and reports every regime key or slack assignment with a constant value.
func regimeLiteralsInDir(dir, rel string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	hits := regimeLiterals(fset, files, rel == "internal/msvc")
	for i := range hits {
		hits[i] = rel + "/" + hits[i]
	}
	return hits, nil
}

// regimeLiterals reports, as "file:line: Key value", each regime key or
// slack assignment in files (one package) whose value is constant. With
// msvc set, DefaultWorkloadConfig's body is skipped.
func regimeLiterals(fset *token.FileSet, files []*ast.File, msvc bool) []string {
	consts := map[string]bool{} // package-level constants, across files
	for _, f := range files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, n := range spec.(*ast.ValueSpec).Names {
						consts[n.Name] = true
					}
				}
			}
		}
	}
	var hits []string
	report := func(key string, at token.Pos, val ast.Expr) {
		if isConstExpr(val, consts) {
			p := fset.Position(at)
			hits = append(hits, fmt.Sprintf("%s:%d: %s %s", filepath.Base(p.Filename), p.Line, key, types.ExprString(val)))
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !(msvc && n.Recv == nil && n.Name.Name == "DefaultWorkloadConfig")
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && regimeKeys[k.Name] {
					report(k.Name, n.Pos(), n.Value)
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "DeadlineSlack" {
						report(sel.Sel.Name, lhs.Pos(), n.Rhs[i])
					}
				}
			}
			return true
		})
	}
	sort.Strings(hits)
	return hits
}

// isConstExpr reports whether e is a constant expression as far as syntax
// tells: literals, constants of the package or the enclosing scope, and
// arithmetic or basic conversions of them.
func isConstExpr(e ast.Expr, consts map[string]bool) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return isConstExpr(e.X, consts)
	case *ast.UnaryExpr:
		return isConstExpr(e.X, consts)
	case *ast.BinaryExpr:
		return isConstExpr(e.X, consts) && isConstExpr(e.Y, consts)
	case *ast.Ident:
		if e.Obj != nil {
			return e.Obj.Kind == ast.Con
		}
		return consts[e.Name]
	case *ast.CallExpr:
		fn, ok := e.Fun.(*ast.Ident)
		return ok && len(e.Args) == 1 && (fn.Name == "float64" || fn.Name == "int") && isConstExpr(e.Args[0], consts)
	}
	return false
}

// The guard's own cases: what it must flag and what it must let through.
func TestRegimeLiteralsFlagsConstantsOnly(t *testing.T) {
	const src = `package p

const paperBudget = 8000

func f(l, b float64, regions int, kappa float64) {
	const local = 0.5
	_ = &model.Instance{Lambda: 0.5, Budget: 8000}           // flagged twice
	_ = sim.Config{Lambda: local, Budget: paperBudget}       // flagged twice
	_ = model.Instance{Budget: 1.5 * float64(4) * 2}         // flagged
	_ = msvc.WorkloadConfig{DeadlineSlack: 0}                // flagged
	w.DeadlineSlack = 0                                      // flagged
	w.Hotspot, w.DeadlineSlack = 0, -(1)                     // flagged
	in.Lambda = l                                            // sweep value
	in.Budget = b                                            // sweep value
	_ = model.Instance{Lambda: cfg.Lambda, Budget: 1.5 * float64(regions) * kappa}
	w.DeadlineSlack = slack
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := regimeLiterals(fset, []*ast.File{f}, false)
	want := []string{
		"p.go:10: DeadlineSlack 0", "p.go:11: DeadlineSlack 0", "p.go:12: DeadlineSlack -(1)",
		"p.go:7: Budget 8000", "p.go:7: Lambda 0.5", "p.go:8: Budget paperBudget", "p.go:8: Lambda local",
		"p.go:9: Budget 1.5 * float64(4) * 2",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
