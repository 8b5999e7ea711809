// Package applyrevert enforces the DeltaEvaluator probe discipline.
// model.DeltaEvaluator.Apply returns an undo record (*Delta) that the caller
// must hand back to Revert to restore the pre-probe state; an exit path that
// skips the Revert leaves the evaluator permanently shifted, and every later
// Eval silently scores the wrong placement (exactly the class of bug PR 1
// fixed in the snapshot machinery, now one level up).
//
// The analyzer is type-directed: it tracks calls to a method named Apply
// whose receiver type also declares a Revert method taking exactly the
// Apply result type — the undo-token handshake that distinguishes
// DeltaEvaluator (and fixture doubles) from unrelated Apply methods such as
// chaos.Mask.Apply (which returns error). Per function it reports:
//
//   - an Apply whose undo record is bound but never passed to any Revert
//     (and not deferred, returned, or stored away) — a probe that can never
//     be rolled back. Discarding the result (`d.Apply(...)` as a statement)
//     is the intentional-commit idiom and is not flagged;
//   - an if-branch between Apply and Revert that exits via return or
//     continue without reverting — with a sharper message when the branch
//     calls Eval/EvalObjective first (evaluating unbalanced state);
//   - a Revert whose delta was recorded before an AdvanceTo on the same
//     receiver: AdvanceTo rebinds the evaluator's epoch, so the saved undo
//     record is stale and the Revert corrupts the new binding.
//
// Intentional sites carry a reasoned //socllint:ignore applyrevert
// directive.
package applyrevert

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the applyrevert pass.
var Analyzer = &analysis.Analyzer{
	Name: "applyrevert",
	Doc:  "flags DeltaEvaluator Apply calls without a balancing Revert on every path, and Reverts of deltas staled by AdvanceTo",
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

// applyCall is one tracked Apply with a bound undo record.
type applyCall struct {
	call *ast.CallExpr
	obj  types.Object // the variable holding the *Delta, nil when untracked (e.g. appended)
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var applies []applyCall
	hasRevert := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPairedMethod(pass, call, "Apply"):
			if obj, bound := boundResult(pass, fd.Body, call); bound {
				applies = append(applies, applyCall{call: call, obj: obj})
			}
		case isPairedMethod(pass, call, "Revert"):
			hasRevert = true
		}
		return true
	})
	if len(applies) == 0 {
		return
	}

	for _, ap := range applies {
		if deferredRevert(pass, fd.Body) {
			continue
		}
		if !hasRevert {
			if escapes(pass, fd, ap) {
				continue // the undo record outlives this function; its owner reverts
			}
			pass.Reportf(ap.call.Pos(),
				"Apply records an undo delta but no Revert appears in this function; revert the probe, or discard the result to commit")
			continue
		}
		scope := innermostLoopBody(fd, ap.call.Pos())
		checkExitBranches(pass, scope, ap.call.End(), firstRevertAfter(pass, fd.Body, ap.call.End()))
		checkStaleRevert(pass, fd, ap)
	}
}

// checkExitBranches reports if-branches between pos and the balancing
// Revert (bound) that exit via return or continue without a Revert (or a
// fresh Apply, which restarts the pairing). Branches past the Revert run on
// balanced state and are out of scope.
func checkExitBranches(pass *analysis.Pass, scope *ast.BlockStmt, pos, bound token.Pos) {
	ast.Inspect(scope, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Pos() < pos {
			return true
		}
		if bound != token.NoPos && ifs.Pos() > bound {
			return true
		}
		for _, blk := range ifBranches(ifs) {
			exit := exitStmt(blk)
			if exit == nil {
				continue
			}
			if containsPaired(pass, blk, "Revert") || containsPaired(pass, blk, "Apply") {
				continue
			}
			if evalCall := findEval(pass, blk); evalCall != nil {
				pass.Reportf(evalCall.Pos(),
					"Eval on an unbalanced evaluator: this branch exits without reverting the pending Apply, so the evaluation scores the probed placement")
				continue
			}
			pass.Reportf(exit.Pos(),
				"branch exits between Apply and Revert without reverting; the evaluator keeps the probe state — add a Revert or annotate the intentional commit")
		}
		return true
	})
}

// checkStaleRevert flags Revert(dl) when an AdvanceTo on a paired receiver
// sits between the Apply that produced dl and the Revert consuming it.
func checkStaleRevert(pass *analysis.Pass, fd *ast.FuncDecl, ap applyCall) {
	if ap.obj == nil {
		return
	}
	var advancePos token.Pos = token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPairedMethod(pass, call, "AdvanceTo") && call.Pos() > ap.call.End() {
			if advancePos == token.NoPos || call.Pos() < advancePos {
				advancePos = call.Pos()
			}
		}
		return true
	})
	if advancePos == token.NoPos {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPairedMethod(pass, call, "Revert") || call.Pos() < advancePos {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ap.obj {
				pass.Reportf(call.Pos(),
					"Revert of delta %s recorded before AdvanceTo: the evaluator rebound its epoch, so this undo record is stale", id.Name)
			}
		}
		return true
	})
}

// firstRevertAfter returns the position of the first Revert call after pos,
// or NoPos.
func firstRevertAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos) token.Pos {
	best := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPairedMethod(pass, call, "Revert") || call.Pos() < pos {
			return true
		}
		if best == token.NoPos || call.Pos() < best {
			best = call.Pos()
		}
		return true
	})
	return best
}

// isPairedMethod reports whether call invokes method name on a receiver
// whose type carries the Apply/Revert undo-token pair.
func isPairedMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	recv := pass.TypeOf(sel.X)
	if recv == nil {
		return false
	}
	return hasUndoPair(recv)
}

// hasUndoPair reports whether t (or *t) declares Apply returning exactly the
// parameter type of a Revert method — the undo-token handshake.
func hasUndoPair(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	var apply, revert *types.Signature
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		switch m.Name() {
		case "Apply":
			apply = m.Type().(*types.Signature)
		case "Revert":
			revert = m.Type().(*types.Signature)
		}
	}
	if apply == nil || revert == nil {
		return false
	}
	if apply.Results().Len() != 1 || revert.Params().Len() != 1 {
		return false
	}
	return types.Identical(apply.Results().At(0).Type(), revert.Params().At(0).Type())
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// boundResult reports whether the Apply result is bound rather than
// discarded (a bare `d.Apply(...)` statement is the intentional-commit
// idiom), and the variable it is bound to when the binding is a plain
// assignment (`dl := d.Apply(...)`); appends, returns and other sinks bind
// with a nil object.
func boundResult(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr) (types.Object, bool) {
	var obj types.Object
	discarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if n.X == call {
				discarded = true
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if rhs == call && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if id.Name == "_" {
							discarded = true
							return false
						}
						if o := pass.TypesInfo.Defs[id]; o != nil {
							obj = o
						} else {
							obj = pass.TypesInfo.Uses[id]
						}
					}
					return false
				}
			}
		}
		return true
	})
	return obj, !discarded
}

// escapes reports whether the undo record leaves the function: returned, or
// stored into a field/container that outlives the call.
func escapes(pass *analysis.Pass, fd *ast.FuncDecl, ap applyCall) bool {
	if ap.obj == nil {
		return true // appended into a caller-visible or long-lived container
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ap.obj {
					found = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ap.obj {
					if _, isIdent := n.Lhs[i].(*ast.Ident); !isIdent {
						found = true // stored through a field or element
					}
				}
			}
		}
		return true
	})
	return found
}

// findEval returns the first Eval/EvalObjective call on a paired receiver
// under n, or nil.
func findEval(pass *analysis.Pass, n ast.Node) *ast.CallExpr {
	var out *ast.CallExpr
	ast.Inspect(n, func(m ast.Node) bool {
		if out != nil {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPairedMethod(pass, call, "Eval") || isPairedMethod(pass, call, "EvalObjective") {
			out = call
			return false
		}
		return true
	})
	return out
}

// containsPaired reports whether a call to the named paired method appears
// under n.
func containsPaired(pass *analysis.Pass, n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && isPairedMethod(pass, call, name) {
			found = true
		}
		return !found
	})
	return found
}

// deferredRevert reports a `defer x.Revert(...)` in the body.
func deferredRevert(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && isPairedMethod(pass, d.Call, "Revert") {
			found = true
		}
		return !found
	})
	return found
}

// ifBranches returns the then-block and any else-block of an if statement.
func ifBranches(ifs *ast.IfStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{ifs.Body}
	if blk, ok := ifs.Else.(*ast.BlockStmt); ok {
		out = append(out, blk)
	}
	return out
}

// exitStmt returns the statement making blk an unconditional exit (trailing
// return or continue), or nil.
func exitStmt(blk *ast.BlockStmt) ast.Stmt {
	if len(blk.List) == 0 {
		return nil
	}
	switch last := blk.List[len(blk.List)-1].(type) {
	case *ast.ReturnStmt:
		return last
	case *ast.BranchStmt:
		if last.Tok == token.CONTINUE {
			return last
		}
	}
	return nil
}

// innermostLoopBody returns the body of the innermost for/range statement
// enclosing pos, or the function body.
func innermostLoopBody(fd *ast.FuncDecl, pos token.Pos) *ast.BlockStmt {
	best := fd.Body
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Body.Pos() <= pos && pos <= n.Body.End() {
				best = n.Body
			}
		case *ast.RangeStmt:
			if n.Body.Pos() <= pos && pos <= n.Body.End() {
				best = n.Body
			}
		}
		return true
	})
	return best
}
