// Package lockbalance checks sync.Mutex / sync.RWMutex pairing per
// function: the parallel engines guard their shared state with short mutex
// sections (internal/ilp's incumbentStore), and an early return between
// Lock and Unlock deadlocks every worker at the next offer — a hang, not a
// wrong answer, which is why it deserves a lint rather than a differential
// test.
//
// Per function, for each lock value (identified by its receiver expression,
// e.g. "e.mu"):
//
//   - Lock with no Unlock anywhere in the function (and none deferred);
//   - an if-branch between Lock and the Unlock that exits via return or
//     continue while still holding the lock;
//   - write-side Lock paired only with read-side RUnlock (and vice versa) —
//     the RLock/Lock mismatch that corrupts an RWMutex's reader count;
//   - Unlock (or RUnlock) on a lock this function never takes — sound only
//     as a documented cross-function locking protocol, so it must carry a
//     reasoned ignore.
//
// The analyzer is type-directed: only methods resolving to package sync
// (including promoted methods of embedded mutexes) participate.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockbalance pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc:  "flags sync mutex Lock/Unlock imbalance on some path, RLock/Lock mismatches, and unlocks without locks",
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

// lockOp is one Lock/Unlock-family call on one lock value.
type lockOp struct {
	call     *ast.CallExpr
	key      string // receiver expression, e.g. "e.mu"
	name     string // Lock, Unlock, RLock, RUnlock, TryLock, TryRLock
	deferred bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ops := collectOps(pass, fd.Body)
	if len(ops) == 0 {
		return
	}
	byKey := map[string][]lockOp{}
	order := []string{}
	for _, op := range ops {
		if _, seen := byKey[op.key]; !seen {
			order = append(order, op.key)
		}
		byKey[op.key] = append(byKey[op.key], op)
	}
	for _, key := range order {
		checkLock(pass, fd, key, byKey[key])
	}
}

func checkLock(pass *analysis.Pass, fd *ast.FuncDecl, key string, ops []lockOp) {
	count := func(name string, deferredOK bool) int {
		n := 0
		for _, op := range ops {
			if op.name == name && (deferredOK || !op.deferred) {
				n++
			}
		}
		return n
	}
	locks := count("Lock", true) + count("TryLock", true)
	rlocks := count("RLock", true) + count("TryRLock", true)
	unlocks := count("Unlock", true)
	runlocks := count("RUnlock", true)

	// Unlock without any lock: a cross-function protocol at best.
	if locks+rlocks == 0 {
		for _, op := range ops {
			switch op.name {
			case "Unlock", "RUnlock":
				pass.Reportf(op.call.Pos(),
					"%s.%s without a %s in this function: cross-function lock protocols hide unlock-without-lock panics; keep the pair in one function or annotate the protocol", key, op.name, map[string]string{"Unlock": "Lock", "RUnlock": "RLock"}[op.name])
			}
		}
		return
	}

	// RLock/Lock mismatch across the whole function.
	if locks > 0 && unlocks == 0 && runlocks > 0 {
		pass.Reportf(ops[0].call.Pos(),
			"%s.Lock paired only with RUnlock: write lock released through the read path corrupts the RWMutex state", key)
		return
	}
	if rlocks > 0 && runlocks == 0 && unlocks > 0 {
		pass.Reportf(ops[0].call.Pos(),
			"%s.RLock paired only with Unlock: read lock released through the write path panics at runtime", key)
		return
	}

	for _, op := range ops {
		if op.name != "Lock" && op.name != "RLock" {
			continue
		}
		unlockName := "Unlock"
		if op.name == "RLock" {
			unlockName = "RUnlock"
		}
		if hasDeferred(ops, unlockName) {
			continue // defer covers every exit
		}
		if count(unlockName, false) == 0 {
			pass.Reportf(op.call.Pos(),
				"%s.%s has no matching %s in this function: every later locker deadlocks", key, op.name, unlockName)
			continue
		}
		// Early exits between this Lock and its Unlock; branches past the
		// Unlock run with the lock released and are out of scope.
		scope := innermostLoopBody(fd, op.call.Pos())
		bound := token.NoPos
		for _, u := range ops {
			if u.name == unlockName && !u.deferred && u.call.Pos() > op.call.End() &&
				(bound == token.NoPos || u.call.Pos() < bound) {
				bound = u.call.Pos()
			}
		}
		checkExitBranches(pass, scope, op.call.End(), bound, key, unlockName)
	}
}

// checkExitBranches reports if-branches between pos and the closing unlock
// (bound) that exit via return or continue while the lock is still held.
func checkExitBranches(pass *analysis.Pass, scope *ast.BlockStmt, pos, bound token.Pos, key, unlockName string) {
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
			if containsOp(pass, blk, key, unlockName) {
				continue
			}
			pass.Reportf(exit.Pos(),
				"branch exits while holding %s (no %s before the %s): every later locker deadlocks", key, unlockName, exitWord(exit))
		}
		return true
	})
}

func exitWord(s ast.Stmt) string {
	if b, ok := s.(*ast.BranchStmt); ok && b.Tok == token.CONTINUE {
		return "continue"
	}
	return "return"
}

// collectOps gathers the sync lock/unlock calls of a body.
func collectOps(pass *analysis.Pass, body *ast.BlockStmt) []lockOp {
	var out []lockOp
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, name, ok := syncLockCall(pass, call)
		if !ok {
			return true
		}
		out = append(out, lockOp{call: call, key: key, name: name, deferred: deferred[call]})
		return true
	})
	return out
}

// syncLockCall matches method calls resolving to package sync's
// Lock/Unlock/RLock/RUnlock/TryLock/TryRLock and returns the lock's
// receiver-expression key.
func syncLockCall(pass *analysis.Pass, call *ast.CallExpr) (key, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	fn, isFn := pass.ObjectOf(sel.Sel).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// containsOp reports whether an op with the given name on the given key
// appears under n.
func containsOp(pass *analysis.Pass, n ast.Node, key, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if k, nm, isOp := syncLockCall(pass, call); isOp && k == key && nm == name {
				found = true
			}
		}
		return !found
	})
	return found
}

func hasDeferred(ops []lockOp, name string) bool {
	for _, op := range ops {
		if op.deferred && op.name == name {
			return true
		}
	}
	return false
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
