// Package ilp implements a generic mixed-integer linear programming solver:
// branch and bound over the bounded-variable LP relaxation provided by
// package lp. Together they form the "optimizer" substitute for Gurobi used
// by the paper's OPT comparisons (see DESIGN.md): exact on small instances,
// exponential at scale — which is precisely the behaviour Fig. 2 / Fig. 7
// document.
package ilp

import (
	"fmt"
	"time"

	"repro/internal/lp"
)

// BoundedMIP couples a bounded-variable LP with integrality markers. Binary
// variables live as [0,1] bounds, and branch-and-bound tightens bounds
// instead of appending constraints.
type BoundedMIP struct {
	Prob    *lp.BoundedProblem
	Integer []bool // len == Prob.NumVars
}

// Validate checks structural sanity.
func (m *BoundedMIP) Validate() error {
	if m.Prob == nil {
		return fmt.Errorf("ilp: nil problem")
	}
	if err := m.Prob.Validate(); err != nil {
		return err
	}
	if len(m.Integer) != m.Prob.NumVars {
		return fmt.Errorf("ilp: Integer length %d != NumVars %d", len(m.Integer), m.Prob.NumVars)
	}
	return nil
}

// Options bounds the search.
type Options struct {
	TimeLimit time.Duration // 0 = unlimited
	MaxNodes  int           // 0 = unlimited
	// Workers sizes the parallel branch-and-bound worker pool: 0 means
	// GOMAXPROCS, 1 runs the deterministic engine on one goroutine. Any
	// worker count returns the same optimum and — via the lexicographic
	// incumbent tie-break — the same solution vector (DESIGN.md §6).
	// Node/time limits make which incumbent a *capped* run holds
	// schedule-dependent.
	Workers int
}

// Status of a MIP solve.
type Status int

// Solve outcomes. Feasible means the search stopped early (time/node limit)
// with an incumbent whose optimality is not proven.
const (
	Optimal Status = iota
	Feasible
	Infeasible
	NoSolution // stopped early with no incumbent
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NoSolution:
		return "no-solution"
	default:
		return "?"
	}
}

// Result of a MIP solve.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	Bound     float64 // proven lower bound on the optimum
	Nodes     int     // branch-and-bound nodes explored
	// LPIters sums the simplex pivots of every node relaxation, abandoned
	// warm-start attempts included — the LP work behind Nodes.
	LPIters int
	Elapsed time.Duration
}

const intTol = 1e-6

// SolveBounded runs the warm-started parallel branch and bound of engine.go
// over the bounded-variable relaxation.
func SolveBounded(m *BoundedMIP, opt Options) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	return solveEngine(m, opt)
}
