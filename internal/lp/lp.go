// Package lp solves linear programs with explicit variable bounds
//
//	minimize    c·x
//	subject to  A·x {≤,=,≥} b,   lo ≤ x ≤ up
//
// with two engines sharing one formulation (BoundedProblem): SolveBounded, a
// dense two-phase bounded-variable primal simplex that solves one problem
// from scratch, and WarmSolver, a sparse revised simplex that re-solves one
// problem under a sequence of bound changes from the previous basis. It is
// the foundation of this repository's Gurobi substitution (see DESIGN.md):
// package ilp builds the branch-and-bound MILP solver behind the figures' OPT
// on WarmSolver, with SolveBounded as the independent cold reference. The
// implementation favours clarity and numerical robustness (Bland's
// anti-cycling rule after a Dantzig phase) over large-scale performance —
// the paper's point, after all, is that exact solving does not scale.
package lp

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return "?"
	}
}

// Constraint is one row: Σ Coeffs[j]·x_j  Rel  RHS.
type Constraint struct {
	Coeffs map[int]float64
	Rel    Rel
	RHS    float64
}

// Solution is the result of an LP solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Iters     int
}

const eps = 1e-9

// flip mirrors a relation when its row is negated.
func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}
