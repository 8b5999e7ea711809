// Package parclosure flags unsynchronized writes to captured state inside
// closures that run on other goroutines — the bug class the parallel
// branch-and-bound engine (internal/ilp), the sharded combine's task graph
// (internal/combine/sharded.go), and the sweep executor
// (internal/experiments/sweep.go) are all one careless edit away from.
//
// A "spawned region" is the body of a `go func(){...}`, a function literal
// argument of the spawned call, or a function literal passed in a
// concurrent parameter position of a goroutine-spawning callee (worker-pool
// callbacks like experiments.runSweep's fn or the ilp engine's runFrontier
// process — the cross-function fact comes from the summary pass). Inside a
// region the analyzer reports:
//
//   - assignments and ++/-- through variables captured from the enclosing
//     function (or package scope), including field and *ptr stores rooted at
//     a captured variable;
//   - stores into captured maps (concurrent map writes fault at runtime);
//   - stores into captured slices whose index is itself captured or
//     constant — the repo's disjoint-index discipline requires the index to
//     be claimed inside the region (closure-local loop variable, closure
//     parameter, or atomic cursor read);
//   - calls that pass a captured variable (or its address) to a callee whose
//     summary says it writes through that parameter — the same race one
//     function call away;
//   - calls to functions whose summary records package-level variable
//     writes;
//   - references to an enclosing loop's iteration variable that are not
//     rebound or passed as arguments. Go ≥ 1.22 scopes iteration variables
//     per iteration, so today this is a latent rather than live race — but
//     the repo's worker pools pass indices explicitly (see runFrontier's
//     `go func(worker int)`), and the same shape silently races under any
//     pre-1.22 toolchain, so the style is banned outright.
//
// Writes between a Lock/RLock call and a later (or deferred) Unlock/RUnlock
// in the same region are treated as protected. Intentional sites (e.g. a
// region that is spawned but synchronously joined before the captured value
// is read) carry a reasoned //socllint:ignore parclosure directive.
package parclosure

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the parclosure pass.
var Analyzer = &analysis.Analyzer{
	Name: "parclosure",
	Doc:  "flags unsynchronized writes to captured variables and loop-variable capture inside goroutine-spawning closures",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, region := range analysis.SpawnedRegions(pass.TypesInfo, pass.Summaries, fd.Body) {
				checkRegion(pass, fd, region)
			}
		}
	}
	return nil, nil
}

// checkRegion analyzes one spawned closure.
func checkRegion(pass *analysis.Pass, fd *ast.FuncDecl, region analysis.Region) {
	lit := region.Lit
	captured := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		if isPackageLevel(obj) {
			return true
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	windows := lockWindows(lit.Body)
	protected := func(pos token.Pos) bool {
		for _, w := range windows {
			if w.lo <= pos && pos < w.hi {
				return true
			}
		}
		return false
	}

	checkWrite := func(lhs ast.Expr, pos token.Pos) {
		if protected(pos) {
			return
		}
		reportWrite(pass, lit, lhs, captured)
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// A := redeclares locals; any captured name on its left would not
			// type-check, so only plain assignments can write captured state.
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWrite(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			checkWrite(n.X, n.Pos())
		case *ast.CallExpr:
			if !protected(n.Pos()) {
				checkCall(pass, n, captured)
			}
		}
		return true
	})

	checkLoopCapture(pass, fd, region, captured)
}

// reportWrite classifies one unprotected assignment target. The access path
// is walked outside-in: an index step with a region-local index into a slice
// makes the written element per-task (the disjoint-index discipline) and the
// write is allowed; every other path rooted at a captured variable is a
// shared-state write.
func reportWrite(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr, captured func(types.Object) bool) {
	expr := lhs
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			base := pass.TypeOf(e.X)
			if base != nil {
				if _, isMap := base.Underlying().(*types.Map); isMap {
					if rootCaptured(pass, e.X, captured) {
						pass.Reportf(lhs.Pos(),
							"write to captured map %s inside goroutine closure: concurrent map writes fault; use a mutex or per-worker maps merged after the join", types.ExprString(e.X))
					}
					return
				}
			}
			if !exprCaptured(pass, e.Index, lit, captured) {
				return // region-local index: per-task element, disjoint by discipline
			}
			expr = e.X
		case *ast.Ident:
			obj := pass.ObjectOf(e)
			if captured(obj) {
				where := "captured variable"
				if isPackageLevel(obj) {
					where = "package-level variable"
				}
				pass.Reportf(lhs.Pos(),
					"unsynchronized write to %s %s inside goroutine closure; make it closure-local, guard it with a mutex, or merge per-worker results after the join", where, e.Name)
			}
			return
		default:
			return
		}
	}
}

// checkCall flags calls that hand captured state to a callee that mutates it
// (per the summary pass), and calls to functions that write package-level
// variables.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, captured func(types.Object) bool) {
	callee := analysis.CalleeFunc(pass.TypesInfo, call)
	sum := pass.Summaries[callee]
	if sum == nil {
		return
	}
	if len(sum.GlobalWrites) > 0 {
		pass.Reportf(call.Pos(),
			"call to %s inside goroutine closure writes package-level variable %s without synchronization", callee.Name(), sum.GlobalWrites[0].Name())
	}
	for i, arg := range call.Args {
		if i >= len(sum.MutatesParam) || !sum.MutatesParam[i] {
			continue
		}
		target := ast.Unparen(arg)
		addrTaken := false
		if u, ok := target.(*ast.UnaryExpr); ok && u.Op == token.AND {
			target = ast.Unparen(u.X)
			addrTaken = true
		}
		id, ok := target.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.ObjectOf(id)
		if !captured(obj) {
			continue
		}
		// An explicit &x always aliases caller state; a value argument only
		// does if its type carries a reference (slice, map, pointer, chan) —
		// value copies are private to the callee.
		if !addrTaken && !pointerLike(obj.Type()) {
			continue
		}
		pass.Reportf(call.Pos(),
			"call to %s mutates captured variable %s through parameter %d inside goroutine closure", callee.Name(), id.Name, i)
	}
}

// checkLoopCapture reports reads of an enclosing loop's iteration variables
// from inside the region, suggesting the repo's pass-as-parameter idiom.
func checkLoopCapture(pass *analysis.Pass, fd *ast.FuncDecl, region analysis.Region, captured func(types.Object) bool) {
	loopVars := map[types.Object]bool{}
	spawnPos := region.Spawn.Pos()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n.Body.Pos() <= spawnPos && spawnPos <= n.Body.End() {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							loopVars[obj] = true
						}
					}
				}
			}
		case *ast.ForStmt:
			if n.Body.Pos() <= spawnPos && spawnPos <= n.Body.End() {
				if as, ok := n.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
					for _, e := range as.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							if obj := pass.TypesInfo.Defs[id]; obj != nil {
								loopVars[obj] = true
							}
						}
					}
				}
			}
		}
		return true
	})
	if len(loopVars) == 0 {
		return
	}
	// A self-shadowing `w := w` inside the closure is the sanctioned rebind:
	// later uses resolve to the new local, and the rebind's own RHS is the one
	// permitted outer reference.
	rebound := map[types.Object]bool{}
	ast.Inspect(region.Lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			rid, ok := as.Rhs[i].(*ast.Ident)
			if !ok || rid.Name != lid.Name {
				continue
			}
			if obj := pass.TypesInfo.Uses[rid]; obj != nil && loopVars[obj] {
				rebound[obj] = true
			}
		}
		return true
	})
	reported := map[types.Object]bool{}
	ast.Inspect(region.Lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !loopVars[obj] || rebound[obj] || reported[obj] || !captured(obj) {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(),
			"goroutine closure captures loop variable %s; pass it as an argument (per-iteration scoping saves this under go >= 1.22, but the repo's worker pools pass indices explicitly)", id.Name)
		return true
	})
}

// exprCaptured reports whether any variable referenced by e is captured from
// outside the region (so the expression's value is not region-private).
// Constant-only expressions count as captured: a fixed index written by every
// worker is the race, not the discipline.
func exprCaptured(pass *analysis.Pass, e ast.Expr, lit *ast.FuncLit, captured func(types.Object) bool) bool {
	sawLocal := false
	bad := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if captured(obj) {
			bad = true
		} else {
			sawLocal = true
		}
		return true
	})
	return bad || !sawLocal
}

// rootCaptured walks to the root identifier of an access path.
func rootCaptured(pass *analysis.Pass, e ast.Expr, captured func(types.Object) bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return captured(pass.ObjectOf(x))
		default:
			return false
		}
	}
}

// lockWindow is a [Lock, Unlock) position range within a region body.
type lockWindow struct{ lo, hi token.Pos }

// lockWindows finds mutex-protected spans: a Lock/RLock call opens a window
// that a later Unlock/RUnlock closes; a deferred unlock (or none) extends
// the window to the end of the body. This is positional, not path-sensitive
// — good enough for the straight-line lock regions the repo writes, and
// lockbalance owns the pairing discipline itself.
func lockWindows(body *ast.BlockStmt) []lockWindow {
	var locks, unlocks []token.Pos
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
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			locks = append(locks, call.End())
		case "Unlock", "RUnlock":
			// A deferred unlock runs at function exit: it never closes the
			// window early.
			if !deferred[call] {
				unlocks = append(unlocks, call.Pos())
			}
		}
		return true
	})
	var out []lockWindow
	for _, lo := range locks {
		hi := body.End()
		for _, u := range unlocks {
			if u > lo && u < hi {
				hi = u
			}
		}
		out = append(out, lockWindow{lo, hi})
	}
	return out
}

// pointerLike reports whether values of t alias underlying storage when
// passed by value.
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// isPackageLevel reports whether obj is a package-scoped variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
