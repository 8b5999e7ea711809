// Package detrand enforces determinism in the reproducibility-critical
// packages (the solver and fault stack, the serving daemon, and the
// workload, topology and pipeline-stage generators every figure rests on):
// every result there must be a pure function of the instance and an
// explicit seed.
//
// Flagged inside those packages:
//
//   - time.Now/Since/Until — wall-clock-dependent values (including
//     time.Now()-seeded generators) make runs unreproducible;
//   - package-level math/rand (and math/rand/v2) functions such as
//     rand.Intn/rand.Float64/rand.Shuffle — they draw from the shared global
//     source. Constructing explicitly seeded generators via rand.New /
//     rand.NewSource / rand.NewZipf / rand.NewPCG / rand.NewChaCha8 remains
//     allowed; *rand.Rand methods are untouched.
//
// In the exact-solver package (ilp) one more pattern is flagged:
// ranging over a map. Go randomizes map iteration order per run, so a map
// range in a branch-and-bound path can reorder branching decisions or
// incumbent updates between otherwise identical runs — exactly the
// nondeterminism the parallel engines' differential tests pin down. Ranges
// whose result is provably order-independent (scatter into a dense slice,
// commutative accumulation) carry a reasoned //socllint:ignore.
package detrand

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "flags time.Now, global math/rand, and (in the solver packages) map iteration in the deterministic packages",
	Run:  run,
}

// deterministicPkgs are the package names under the determinism contract.
// core (phase timing) and transport (deadlines, retries) read the wall
// clock by design and stay outside it.
var deterministicPkgs = map[string]bool{
	"model":     true,
	"combine":   true,
	"topology":  true,
	"stats":     true,
	"ilp":       true,
	"chaos":     true,
	"repair":    true,
	"serve":     true,
	"trace":     true,
	"msvc":      true,
	"partition": true,
	"preprov":   true,
	"baselines": true,
	"fuzzy":     true,
	"sim":       true,
}

// mapRangePkgs are the packages where ranging over a map is additionally
// flagged: the exact solvers promise schedule-independent results (parallel
// incumbent == serial incumbent, bit for bit), and a map iteration inside
// the search is the classic way to silently break that promise. The fault
// stack (chaos, repair) makes the same promise — schedules replay bitwise
// and repairs pin a bitwise differential against their naive reference — so
// it lives under the same rule; both packages are slice-indexed throughout.
// The serving daemon (serve) pins daemon-vs-simulator replay and
// run-vs-rerun determinism bitwise, so it inherits the rule too.
var mapRangePkgs = map[string]bool{
	"ilp":    true,
	"chaos":  true,
	"repair": true,
	"serve":  true,
}

// randConstructors are the math/rand package-level functions that build
// explicitly seeded generators rather than using the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !deterministicPkgs[pass.Pkg.Name()] {
		return nil, nil
	}
	mapRanges := mapRangePkgs[pass.Pkg.Name()]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && mapRanges {
				if t := pass.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(rs.Pos(),
							"map iteration in solver package %s: order is randomized per run; iterate sorted keys or a slice", pass.Pkg.Name())
					}
				}
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
			obj := pass.ObjectOf(sel.Sel)
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions: methods (e.g. (*rand.Rand).Intn)
			// have a receiver and are deterministic given their generator.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
					pass.Reportf(call.Pos(),
						"time.%s in deterministic package %s; thread an explicit timestamp or seed through the caller", fn.Name(), pass.Pkg.Name())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					pass.Reportf(call.Pos(),
						"global math/rand.%s in deterministic package %s; use an explicitly seeded *rand.Rand", fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
