package ilp

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/lp"
)

// WriteBoundedLP serializes a BoundedMIP in the CPLEX LP file format, which
// Gurobi, CPLEX, SCIP, HiGHS and GLPK all read. This is the repository's
// bridge to external solvers: the SoCL ILP built by BuildSoCLBounded can be
// exported and solved by a commercial optimizer to double-check the built-in
// exact solvers (see DESIGN.md §1 — the paper used Gurobi).
//
// Variable j is named x<j>; bounds go to the Bounds section and integer
// markers to the General section (omitted when no variable is integer).
func WriteBoundedLP(w io.Writer, m *BoundedMIP) error {
	if err := m.Validate(); err != nil {
		return err
	}
	prob := m.Prob
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, `\ SoCL ILP export (CPLEX LP format, bounded variables)`)
	fmt.Fprintln(bw, "Minimize")
	fmt.Fprint(bw, " obj:")
	writeLinear(bw, prob.Objective)
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "Subject To")
	for i, c := range prob.Constraints {
		fmt.Fprintf(bw, " c%d:", i)
		coeffs := make([]float64, prob.NumVars)
		//socllint:ignore detrand map scatter into a dense slice indexed by key; result is iteration-order-independent
		for j, v := range c.Coeffs {
			coeffs[j] = v
		}
		writeLinear(bw, coeffs)
		switch c.Rel {
		case lp.LE:
			fmt.Fprintf(bw, " <= %g\n", c.RHS)
		case lp.GE:
			fmt.Fprintf(bw, " >= %g\n", c.RHS)
		case lp.EQ:
			fmt.Fprintf(bw, " = %g\n", c.RHS)
		}
	}

	fmt.Fprintln(bw, "Bounds")
	for j := 0; j < prob.NumVars; j++ {
		lo, up := prob.Lower[j], prob.Upper[j]
		switch {
		case math.IsInf(up, 1) && lo == 0:
			// default bound; omit
		case math.IsInf(up, 1):
			fmt.Fprintf(bw, " x%d >= %g\n", j, lo)
		default:
			fmt.Fprintf(bw, " %g <= x%d <= %g\n", lo, j, up)
		}
	}

	line := 0
	for j, isInt := range m.Integer {
		if !isInt {
			continue
		}
		if line == 0 {
			fmt.Fprintln(bw, "General")
		}
		fmt.Fprintf(bw, " x%d", j)
		line++
		if line%10 == 0 {
			fmt.Fprintln(bw)
		}
	}
	if line%10 != 0 {
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "End")
	return bw.Flush()
}

// writeLinear emits "+ 2 x0 - 3.5 x4 ..." skipping zero coefficients (a
// lone "0 x0" is emitted for the all-zero expression, which LP format
// requires to be non-empty).
func writeLinear(w io.Writer, coeffs []float64) {
	wrote := false
	for j, v := range coeffs {
		if v == 0 {
			continue
		}
		if v >= 0 {
			fmt.Fprintf(w, " + %g x%d", v, j)
		} else {
			fmt.Fprintf(w, " - %g x%d", -v, j)
		}
		wrote = true
	}
	if !wrote {
		fmt.Fprint(w, " 0 x0")
	}
}
