// Package sentinelerr enforces errors.Is/errors.As discipline around
// sentinel-documented errors such as model.ErrNoInstance.
//
// Three checks:
//
//  1. ==/!= comparison of error values against anything but nil: wrapped
//     sentinels never compare equal — use errors.Is.
//  2. Type assertion of an error to a concrete error type (x.(ErrFoo) or a
//     type switch over an error): use errors.As, which unwraps. An assertion
//     on an error variable the same function also hands to errors.As is a
//     fast path in front of the unwrapping check, not a replacement for it,
//     and is not flagged.
//  3. Calls to functions annotated `//socllint:sentinel <Name>` (functions
//     whose error result carries a sentinel the caller must branch on):
//     discarding the error result — or handling it while the enclosing
//     function never consults errors.Is/errors.As/Is*-style helpers — is
//     flagged. The deadlineViolated bug of PR 1 was exactly such a caller
//     treating "any error" as the sentinel.
package sentinelerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the sentinelerr pass.
var Analyzer = &analysis.Analyzer{
	Name: "sentinelerr",
	Doc:  "flags error handling that must branch on errors.Is/errors.As for sentinel errors",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	branchesOnSentinel := usesErrorBranding(pass, fd.Body)
	unwrapped := errorsAsArgs(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkComparison(pass, n)
		case *ast.TypeAssertExpr:
			checkAssertion(pass, n, unwrapped)
		case *ast.AssignStmt:
			checkSentinelCallAssign(pass, n, branchesOnSentinel)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := sentinelCallee(pass, call); ok {
					pass.Reportf(call.Pos(),
						"error result of %s (sentinel contract) is discarded; handle it with errors.Is/errors.As", name)
				}
			}
		}
		return true
	})
}

// checkComparison flags err ==/!= X where X is not nil.
func checkComparison(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if !isErrorType(pass.TypeOf(be.X)) && !isErrorType(pass.TypeOf(be.Y)) {
		return
	}
	if isNil(pass, be.X) || isNil(pass, be.Y) {
		return
	}
	pass.Reportf(be.OpPos, "errors compared with %s never match wrapped sentinels; use errors.Is", be.Op)
}

// checkAssertion flags err.(ConcreteError) unless err is a variable in
// unwrapped, one the function also hands to errors.As; type switches produce
// implicit TypeAssertExpr nodes with nil Type, handled by the switch's case
// clauses.
func checkAssertion(pass *analysis.Pass, ta *ast.TypeAssertExpr, unwrapped map[types.Object]bool) {
	if !isErrorType(pass.TypeOf(ta.X)) {
		return
	}
	if ta.Type == nil { // type switch header: the cases carry the types
		pass.Reportf(ta.Pos(), "type switch on an error does not unwrap; use errors.As")
		return
	}
	if id, ok := ta.X.(*ast.Ident); ok && unwrapped[pass.ObjectOf(id)] {
		return // a fast path in front of errors.As on the same error
	}
	if implementsError(pass.TypeOf(ta.Type)) {
		pass.Reportf(ta.Pos(), "type assertion on an error does not unwrap; use errors.As")
	}
}

// errorsAsArgs collects the variables body passes to errors.As as the error
// to unwrap.
func errorsAsArgs(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	var vars map[types.Object]bool
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "As" {
			return true
		}
		fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "errors" {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if vars == nil {
				vars = make(map[types.Object]bool)
			}
			vars[pass.ObjectOf(id)] = true
		}
		return true
	})
	return vars
}

// checkSentinelCallAssign flags assignments from sentinel-annotated calls
// that blank the error result or feed a function that never brands errors.
func checkSentinelCallAssign(pass *analysis.Pass, as *ast.AssignStmt, branded bool) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := sentinelCallee(pass, call)
	if !ok {
		return
	}
	errIdx := errorResultIndex(pass, call)
	if errIdx < 0 || errIdx >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(id.Pos(),
			"error result of %s (sentinel contract) is discarded; handle it with errors.Is/errors.As", name)
		return
	}
	if !branded {
		pass.Reportf(call.Pos(),
			"%s returns a sentinel error but this function never branches on errors.Is/errors.As; nil-only checks misclassify other failures", name)
	}
}

// sentinelCallee reports the callee name when the called function carries a
// //socllint:sentinel directive.
func sentinelCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return "", false
	}
	for _, d := range pass.FuncDirectives[obj] {
		if strings.HasPrefix(d, "sentinel") {
			return id.Name, true
		}
	}
	return "", false
}

// errorResultIndex returns the index of the call's error result, or -1.
func errorResultIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	t := pass.TypeOf(call)
	if t == nil {
		return -1
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return i
			}
		}
		return -1
	}
	if isErrorType(t) {
		return 0
	}
	return -1
}

// usesErrorBranding reports whether the body calls errors.Is/errors.As or an
// Is*/As*-named helper that takes an error argument (e.g. model.IsNoInstance).
func usesErrorBranding(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return !found
		}
		if name == "Is" || name == "As" ||
			((strings.HasPrefix(name, "Is") || strings.HasPrefix(name, "As")) && hasErrorArg(pass, call)) {
			found = true
		}
		return !found
	})
	return found
}

// hasErrorArg reports whether any argument of the call is error-typed.
func hasErrorArg(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isErrorType(pass.TypeOf(arg)) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is the error interface or implements it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// implementsError is isErrorType for asserted target types.
func implementsError(t types.Type) bool { return isErrorType(t) }

// isNil reports whether e is the predeclared nil.
func isNil(pass *analysis.Pass, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		obj := pass.ObjectOf(id)
		return obj == nil || obj.Parent() == types.Universe
	}
	if t, ok := pass.TypesInfo.Types[e]; ok {
		if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return true
		}
	}
	return false
}
