package invariant

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// Solver-side invariants: re-verify a solution a branch-and-bound engine
// accepted as incumbent by recomputing everything from scratch against the
// original problem — no tableau, no warm state. The parallel engines call
// these under -tags soclinvariants for every accepted incumbent, so a
// warm-start or sharing bug that produced an infeasible or mispriced vector
// panics at the moment of acceptance instead of surfacing as a silently wrong
// benchmark row.

// lpCheckTol is looser than model.FeasTol because the simplex solvers work
// at eps = 1e-9 themselves; recomputation in a different summation order can
// legitimately differ by a few ulps beyond that.
const lpCheckTol = 1e-6

// CheckLPBoundedSolution panics unless x is feasible for the bounded problem
// p (rows within lpCheckTol, every variable inside [Lower, Upper]) and obj
// matches the recomputed objective value.
func CheckLPBoundedSolution(p *lp.BoundedProblem, x []float64, obj float64, where string) {
	if !Enabled {
		return
	}
	if len(x) != p.NumVars {
		panic(fmt.Sprintf("invariant: %s: solution length %d != NumVars %d", where, len(x), p.NumVars))
	}
	for j, v := range x {
		if math.IsNaN(v) || v < p.Lower[j]-lpCheckTol || v > p.Upper[j]+lpCheckTol {
			panic(fmt.Sprintf("invariant: %s: x[%d] = %v outside [%v, %v]", where, j, v, p.Lower[j], p.Upper[j]))
		}
	}
	for i, c := range p.Constraints {
		lhs := 0.0
		for j, v := range c.Coeffs {
			lhs += v * x[j]
		}
		checkRow(lhs, c.Rel, c.RHS, i, where)
	}
	checkObjective(p.Objective, x, obj, where)
}

// CheckWarmFactorization panics when a warm solver's maintained basic values
// drift from its factorization beyond lpCheckTol — the probe behind the
// sparse engine's eta-file/refactorization bookkeeping (a stale or corrupt
// factorization shows up as a constraint-row residual at the basis point
// long before it misprices an incumbent). No-op when ws holds no Optimal
// basis.
func CheckWarmFactorization(ws *lp.WarmSolver, where string) {
	if !Enabled {
		return
	}
	res, ok := ws.FactorizationResidual()
	if !ok {
		return
	}
	if math.IsNaN(res) || res > lpCheckTol {
		panic(fmt.Sprintf("invariant: %s: factorization residual %.3g exceeds %g", where, res, lpCheckTol))
	}
}

func checkRow(lhs float64, rel lp.Rel, rhs float64, row int, where string) {
	ok := true
	switch rel {
	case lp.LE:
		ok = lhs <= rhs+lpCheckTol
	case lp.GE:
		ok = lhs >= rhs-lpCheckTol
	case lp.EQ:
		ok = AlmostEq(lhs, rhs, lpCheckTol)
	}
	if !ok {
		panic(fmt.Sprintf("invariant: %s: constraint %d violated: lhs %.9g vs rhs %.9g (rel %v)", where, row, lhs, rhs, rel))
	}
}

func checkObjective(objective, x []float64, obj float64, where string) {
	want := 0.0
	for j, c := range objective {
		want += c * x[j]
	}
	scale := math.Max(math.Abs(want), 1)
	if !AlmostEq(obj, want, lpCheckTol*scale) {
		panic(fmt.Sprintf("invariant: %s: reported objective %.12g != recomputed %.12g", where, obj, want))
	}
}
