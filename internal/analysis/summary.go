// Function summaries: the lightweight cross-function dataflow layer under
// parclosure. For every function and method the loader type-checks,
// Summarize records the facts a caller-side analyzer needs about a callee it
// cannot see into:
//
//   - which pointer-like parameters (and the receiver) the function writes
//     through;
//   - which package-level variables it writes;
//   - whether it spawns goroutines, directly or through any callee;
//   - which function-typed parameters it invokes (or lets escape) inside a
//     spawned goroutine — the worker-pool-callback fact that lets parclosure
//     treat a closure passed to runSweep/runFrontier exactly like the body
//     of a `go func`.
//
// Summaries are computed bottom-up over the loader's package graph: imports
// type-check (and summarize) before their importers, so cross-package callee
// summaries are always present; within one package, Summarize iterates to a
// fixpoint so mutual recursion and declaration order do not matter. Stdlib
// functions have no summaries (no syntax is loaded for them) and are treated
// as opaque.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncSummary is the cross-function fact sheet of one declared function or
// method.
type FuncSummary struct {
	// MutatesRecv reports a write through the receiver (field assignment,
	// element store, or *recv store).
	MutatesRecv bool
	// MutatesParam[i] reports a write through parameter i.
	MutatesParam []bool
	// GlobalWrites lists the package-level variables the function assigns.
	GlobalWrites []types.Object
	// Spawns reports that the function starts goroutines, directly (a go
	// statement) or transitively (a call to a Spawns function).
	Spawns bool
	// ConcurrentParams[i] reports that function-typed parameter i is invoked
	// or referenced inside a goroutine the function spawns, or forwarded to a
	// concurrent position of another callee — i.e. a closure argument may run
	// on another goroutine.
	ConcurrentParams []bool
}

// Summarize computes summaries for every function declared in files and
// merges them into out, which already holds the summaries of every package
// loaded earlier (the callees). It iterates to a fixpoint within the package
// so same-package call cycles converge regardless of declaration order.
func Summarize(info *types.Info, files []*ast.File, out map[types.Object]*FuncSummary) {
	var decls []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// A package's call graph is finite and summaries only ever gain facts, so
	// this converges; the bound is a safety net, not a tuning knob.
	for iter := 0; iter < len(decls)+2; iter++ {
		changed := false
		for _, fd := range decls {
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			s := summarizeFunc(info, fd, out)
			if prev := out[obj]; prev == nil || !equalSummary(prev, s) {
				out[obj] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// summarizeFunc computes one function's summary against the current state of
// the program-wide map.
func summarizeFunc(info *types.Info, fd *ast.FuncDecl, all map[types.Object]*FuncSummary) *FuncSummary {
	recv, params := funcBindings(info, fd)
	s := &FuncSummary{
		MutatesParam:     make([]bool, len(params)),
		ConcurrentParams: make([]bool, len(params)),
	}
	paramIndex := func(obj types.Object) int {
		for i, p := range params {
			if p == obj {
				return i
			}
		}
		return -1
	}
	noteWrite := func(obj types.Object) {
		switch {
		case obj == nil:
		case recv != nil && obj == recv:
			s.MutatesRecv = true
		case paramIndex(obj) >= 0:
			s.MutatesParam[paramIndex(obj)] = true
		case isPackageLevelVar(obj):
			for _, g := range s.GlobalWrites {
				if g == obj {
					return
				}
			}
			s.GlobalWrites = append(s.GlobalWrites, obj)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			s.Spawns = true
			// A function-typed parameter launched or captured by the spawned
			// closure runs concurrently with the caller.
			for _, p := range concurrentParamRefs(info, n, params) {
				s.ConcurrentParams[p] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				noteWrite(writeRoot(info, lhs))
			}
		case *ast.IncDecStmt:
			noteWrite(writeRoot(info, n.X))
		case *ast.CallExpr:
			callee := CalleeFunc(info, n)
			cs := all[callee]
			if cs == nil {
				return true
			}
			if cs.Spawns {
				s.Spawns = true
			}
			// Forwarding one of our own function-typed parameters into a
			// concurrent position of the callee makes it concurrent here too.
			for i, arg := range n.Args {
				id, ok := arg.(*ast.Ident)
				if !ok {
					continue
				}
				j := paramIndex(info.Uses[id])
				if j < 0 {
					continue
				}
				if i < len(cs.ConcurrentParams) && cs.ConcurrentParams[i] {
					s.ConcurrentParams[j] = true
				}
			}
		}
		return true
	})
	return s
}

// funcBindings returns the receiver object (nil for plain functions) and the
// parameter objects of a declaration, in order.
func funcBindings(info *types.Info, fd *ast.FuncDecl) (recv types.Object, params []types.Object) {
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recv = info.Defs[fd.Recv.List[0].Names[0]]
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				params = append(params, info.Defs[name])
			}
		}
	}
	return recv, params
}

// writeRoot resolves the base object an assignment writes through: the x of
// x.f = v, x[i] = v, *x = v, or chains thereof. A plain `x = v` rebinds the
// local and mutates nothing shared, so it roots only when x is package-level.
func writeRoot(info *types.Info, lhs ast.Expr) types.Object {
	indirect := false
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			indirect = true
			lhs = e.X
		case *ast.IndexExpr:
			indirect = true
			lhs = e.X
		case *ast.StarExpr:
			indirect = true
			lhs = e.X
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				return nil
			}
			if !indirect && !isPackageLevelVar(obj) {
				return nil // plain rebind of a local
			}
			return obj
		default:
			return nil
		}
	}
}

// isPackageLevelVar reports whether obj is a package-scoped variable.
func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// concurrentParamRefs returns the indexes of function-typed params referenced
// anywhere under the spawned call of a go statement.
func concurrentParamRefs(info *types.Info, g *ast.GoStmt, params []types.Object) []int {
	var out []int
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
			return true
		}
		for i, p := range params {
			if p == obj {
				out = append(out, i)
			}
		}
		return true
	})
	return out
}

// equalSummary compares two summaries field by field.
func equalSummary(a, b *FuncSummary) bool {
	if a.MutatesRecv != b.MutatesRecv || a.Spawns != b.Spawns ||
		len(a.MutatesParam) != len(b.MutatesParam) ||
		len(a.ConcurrentParams) != len(b.ConcurrentParams) ||
		len(a.GlobalWrites) != len(b.GlobalWrites) {
		return false
	}
	for i := range a.MutatesParam {
		if a.MutatesParam[i] != b.MutatesParam[i] {
			return false
		}
	}
	for i := range a.ConcurrentParams {
		if a.ConcurrentParams[i] != b.ConcurrentParams[i] {
			return false
		}
	}
	for i := range a.GlobalWrites {
		if a.GlobalWrites[i] != b.GlobalWrites[i] {
			return false
		}
	}
	return true
}

// --- shared helpers for parclosure ---

// Region is one closure that may execute on a goroutine other than its
// enclosing function's: the literal of a `go func(){...}` (or a literal
// argument of the spawned call), or a literal passed in a concurrent
// parameter position of a goroutine-spawning callee (worker-pool callback).
type Region struct {
	Lit   *ast.FuncLit
	Spawn ast.Node // the go statement or the spawning call expression
}

// SpawnedRegions finds every such region under body. summaries supplies the
// cross-function facts for the worker-pool case and may be nil.
func SpawnedRegions(info *types.Info, summaries map[types.Object]*FuncSummary, body ast.Node) []Region {
	var out []Region
	seen := map[*ast.FuncLit]bool{}
	add := func(lit *ast.FuncLit, spawn ast.Node) {
		if lit != nil && !seen[lit] {
			seen[lit] = true
			out = append(out, Region{Lit: lit, Spawn: spawn})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				add(lit, n)
			}
			for _, arg := range n.Call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					add(lit, n)
				}
			}
		case *ast.CallExpr:
			cs := summaries[CalleeFunc(info, n)]
			if cs == nil {
				return true
			}
			for i, arg := range n.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				if i < len(cs.ConcurrentParams) && cs.ConcurrentParams[i] {
					add(lit, n)
				}
			}
		}
		return true
	})
	return out
}

// CalleeFunc resolves a call to its declared *types.Func (possibly from
// another package), or nil for closures, function values, conversions and
// built-ins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) types.Object {
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
	if obj, ok := info.Uses[id].(*types.Func); ok {
		return obj
	}
	return nil
}
