// Package floateq flags exact ==/!= comparisons between two computed
// floating-point values.
//
// Objective, latency, and ζ values in this repository are accumulated
// float64 sums; exact equality between two of them is almost always a bug.
// Comparisons belong in an epsilon helper (a function whose name mentions
// almost/approx/eps/within, e.g. invariant.AlmostEq). Three shapes are not
// the bug class and are exempt by construction:
//
//   - one operand is a compile-time constant (types.Info records its value):
//     `x == 0` tests a structural zero or an unset-field sentinel, a value
//     that was assigned rather than accumulated;
//   - the comparison sits in an ordering comparator — a function literal
//     passed to sort.Slice, sort.SliceStable, slices.SortFunc or
//     slices.SortStableFunc, or a Less(i, j int) bool method — where
//     `if a != b { return a < b }` is the tie-break and an epsilon would
//     break strict weak ordering;
//   - the file is a _test.go file, where exact comparison is how the bitwise
//     contracts (incremental ≡ naive, replay ≡ live) are asserted. socllint
//     itself does not load test files; the rule holds for any loader that
//     does (load.Config.IncludeTests).
//
// What remains — two computed values compared exactly on purpose — carries a
// //socllint:ignore floateq <reason> directive.
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the floateq pass.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc:  "flags ==/!= between two non-constant floating-point operands outside epsilon helpers, sort comparators and tests",
	Run:  run,
}

// helperRe recognizes epsilon-helper functions by name; their bodies may
// compare floats exactly.
var helperRe = regexp.MustCompile(`(?i)(almost|approx|eps|within|ulp)`)

// comparatorFuncs are the stdlib sorts whose function-literal argument is an
// ordering comparator.
var comparatorFuncs = map[string]bool{
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

func run(pass *analysis.Pass) (any, error) {
	comparators := map[*ast.FuncLit]bool{}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if helperRe.MatchString(fd.Name.Name) || isLessMethod(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					// Inspect reaches the call before its arguments, so the
					// literals are marked by the time they are visited.
					if fn := calleeFunc(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil &&
						comparatorFuncs[fn.Pkg().Path()+"."+fn.Name()] {
						for _, arg := range n.Args {
							if lit, ok := arg.(*ast.FuncLit); ok {
								comparators[lit] = true
							}
						}
					}
				case *ast.FuncLit:
					return !comparators[n]
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) &&
						isFloat(pass.TypeOf(n.X)) && isFloat(pass.TypeOf(n.Y)) &&
						!isConst(pass, n.X) && !isConst(pass, n.Y) {
						pass.Reportf(n.OpPos,
							"exact %s on floating-point values; use an epsilon helper or annotate the deliberate exact compare", n.Op)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// calleeFunc resolves a call to its declared *types.Func (possibly from
// another package), or nil for closures, function values, conversions and
// built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isLessMethod reports whether fd is a sort.Interface / heap.Interface
// comparator: a method Less(i, j int) bool.
func isLessMethod(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Less" {
		return false
	}
	fn, ok := pass.ObjectOf(fd.Name).(*types.Func)
	if !ok {
		return false
	}
	// Predeclared types are singletons, so identity is pointer equality.
	sig := fn.Type().(*types.Signature)
	params, results := sig.Params(), sig.Results()
	return params.Len() == 2 && results.Len() == 1 &&
		params.At(0).Type() == types.Typ[types.Int] && params.At(1).Type() == types.Typ[types.Int] &&
		results.At(0).Type() == types.Typ[types.Bool]
}

// isConst reports whether e is a compile-time constant.
func isConst(pass *analysis.Pass, e ast.Expr) bool {
	return pass.TypesInfo.Types[e].Value != nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
