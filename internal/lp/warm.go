package lp

import (
	"fmt"
	"math"
)

// WarmSolver solves a sequence of bound variations of one BoundedProblem —
// the exact shape of branch-and-bound node relaxations, where the matrix A,
// the right-hand side b and the objective c never change and only variable
// bounds tighten or relax. Unlike SolveBounded, which shifts lower bounds to
// zero at construction (and so must rebuild everything when a lower bound
// moves), WarmSolver keeps native [lo, up] column bounds inside the tableau.
// That makes warm starts possible: after an Optimal solve the factorized
// basis and the phase-2 reduced costs remain valid for any bound change —
// reduced costs depend only on (A, b, c) — so a child solve just moves the
// nonbasic variables to their new bounds, updates the basic values by the
// corresponding deltas, and resumes phase-2 pivoting. Phase 1 is re-entered
// (a cold rebuild, reusing the row storage) only when the parent basis is
// primal-infeasible under the child bounds and dual pivots cannot repair it.
// The engine is the sparse revised simplex of sparse.go; a dense tableau
// with the identical pivot rules lives in the package's tests as the
// differential reference.
//
// Determinism contract: a solve's result is a pure function of (base problem,
// bounds, start state), and the start state is either "cold", "the final
// tableau of the previous Optimal solve", or "a Snapshot". The parallel
// branch-and-bound engine in package ilp relies on this: every node's start
// state is determined by its tree position alone (dive children warm from
// their parent, queued siblings restore their parent's snapshot), so node
// results do not depend on worker scheduling.
//
// A WarmSolver is not safe for concurrent use; give each worker its own and
// share Snapshots, which are immutable once taken.
type WarmSolver struct {
	base  *BoundedProblem
	sp    sparseTableau
	ready bool // sp holds an Optimal basis for its current bounds
	// Stats counts how solves started and what they cost; tests assert the
	// warm path is actually exercised.
	Stats WarmStats
}

// WarmStats counts solve starts by kind and the simplex pivots spent.
type WarmStats struct {
	Warm int // resumed phase 2 from the previous basis
	Dual int // bound change broke primal feasibility; dual pivots repaired it or proved it infeasible
	Cold int // rebuilt from scratch (phase 1), reusing row storage
	// Iters sums pivots and bound flips over every solve, including those of
	// a dual repair that gave up before the cold rebuild replaced it.
	Iters int
}

// warmFeasTol is the primal-feasibility tolerance deciding whether the
// parent basis survives a bound change; it matches the phase-1 feasibility
// threshold so warm and cold starts agree on what "feasible" means.
const warmFeasTol = 1e-7

// NewWarmSolver validates the base problem (bounds are supplied per solve,
// so only the rows and objective are checked here) and returns a solver with
// no basis yet — the first SolveWithBounds is a cold start.
func NewWarmSolver(base *BoundedProblem) (*WarmSolver, error) {
	if base == nil {
		return nil, fmt.Errorf("lp: nil problem")
	}
	if base.NumVars <= 0 {
		return nil, fmt.Errorf("lp: no variables")
	}
	if len(base.Objective) != base.NumVars {
		return nil, fmt.Errorf("lp: objective length %d != NumVars %d", len(base.Objective), base.NumVars)
	}
	for i, c := range base.Constraints {
		for j := range c.Coeffs {
			if j < 0 || j >= base.NumVars {
				return nil, fmt.Errorf("lp: constraint %d references variable %d", i, j)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return nil, fmt.Errorf("lp: constraint %d has invalid RHS %v", i, c.RHS)
		}
	}
	w := &WarmSolver{base: base}
	w.sp.a = newCSC(base)
	return w, nil
}

// SolveWithBounds solves the base problem under the given variable bounds
// (the base's own Lower/Upper are ignored). lower/upper are only read. The
// solve resumes from the previous Optimal basis when it survives the bound
// change (or dual pivots repair it) and rebuilds cold otherwise.
func (w *WarmSolver) SolveWithBounds(lower, upper []float64) (Solution, error) {
	n := w.base.NumVars
	if len(lower) != n || len(upper) != n {
		return Solution{}, fmt.Errorf("lp: bounds length %d/%d != NumVars %d", len(lower), len(upper), n)
	}
	for j := 0; j < n; j++ {
		if math.IsInf(lower[j], 0) || math.IsNaN(lower[j]) || math.IsNaN(upper[j]) {
			return Solution{}, fmt.Errorf("lp: invalid bounds on variable %d", j)
		}
		if lower[j] > upper[j] {
			return Solution{}, fmt.Errorf("lp: empty bound interval on variable %d [%v, %v]", j, lower[j], upper[j])
		}
	}
	if w.ready {
		w.sp.iters = 0
		resumed := w.warmApplySparse(lower, upper)
		if resumed {
			w.Stats.Warm++
		} else if st := w.sp.dualResume(); st != IterLimit {
			// Bound tightening broke primal feasibility but dual pivots on the
			// existing factorization repaired it, or proved it beyond repair.
			w.Stats.Dual++
			if st == Infeasible {
				w.Stats.Iters += w.sp.iters
				w.ready = false
				return Solution{Status: Infeasible, Iters: w.sp.iters}, nil
			}
			resumed = true
		}
		if resumed {
			st := w.sp.iterate()
			w.Stats.Iters += w.sp.iters
			if st == Optimal {
				return w.extractSparse(), nil
			}
			// Unbounded can legitimately appear when bounds were relaxed;
			// IterLimit means the resumed basis cycled. Either way the tableau
			// is no longer a usable warm source.
			w.ready = false
			return Solution{Status: st, Iters: w.sp.iters}, nil
		}
		w.Stats.Iters += w.sp.iters // pivots of the abandoned dual repair
	}
	w.ready = false
	w.Stats.Cold++
	sol := w.coldSolveSparse(lower, upper)
	w.Stats.Iters += sol.Iters
	return sol, nil
}

// canonZeros rewrites -0 entries to +0. The sparse engine and its dense test
// reference compute basic values through different arithmetic (FTRAN
// recomputation vs incremental pivot updates), which agrees bitwise except
// possibly on the sign of exact zeros; canonicalizing both extractions keeps
// "sparse ≡ dense bitwise" literal and stops -0 from leaking into reported
// solutions.
func canonZeros(x []float64) {
	for j, v := range x {
		if v == 0 {
			x[j] = 0
		}
	}
}

// WarmSnapshot is an immutable copy of a WarmSolver's tableau state, taken
// after an Optimal solve. Restoring it puts a solver (typically a different
// worker's) into exactly that state, so warm starts from a shared ancestor
// in the parallel branch-and-bound are reproducible regardless of which
// worker performs them.
type WarmSnapshot struct {
	sp sparseTableau
}

// Snapshot deep-copies the current tableau state. Returns nil when the
// solver holds no Optimal basis (callers then simply cold-start instead).
// Snapshots are cheap: the constraint matrix and the eta columns are shared
// immutably, so the copy is the basis/bounds state plus eta headers.
func (w *WarmSolver) Snapshot() *WarmSnapshot {
	return w.SnapshotTo(nil)
}

// SnapshotTo is Snapshot writing into recycled storage: when s is non-nil its
// arrays are reused (the branch-and-bound engine pools per-branch parent
// snapshots through this). A nil s allocates. Returns nil when the solver
// holds no Optimal basis, leaving s untouched.
func (w *WarmSolver) SnapshotTo(s *WarmSnapshot) *WarmSnapshot {
	if !w.ready {
		return nil
	}
	if s == nil {
		s = &WarmSnapshot{}
	}
	s.sp.copyFrom(&w.sp)
	w.sp.arenaShared = true // s's eta headers point into w's arena
	return s
}

// Restore loads a snapshot into the solver, reusing its storage. The solver
// must have been created for the same base problem; a nil snapshot leaves the
// solver with no basis (the next solve is a cold start).
func (w *WarmSolver) Restore(s *WarmSnapshot) {
	if s == nil {
		w.ready = false
		return
	}
	w.sp.copyFrom(&s.sp)
	w.ready = true
}
