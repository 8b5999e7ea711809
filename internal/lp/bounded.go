package lp

import (
	"fmt"
	"math"
)

// BoundedProblem is a linear program with explicit variable bounds:
//
//	minimize    c·x
//	subject to  A·x {≤,=,≥} b,   lo ≤ x ≤ up
//
// Handling bounds inside the simplex (nonbasic-at-lower / nonbasic-at-upper
// states and bound flips) avoids one constraint row per bound — for the
// SoCL ILP, whose variables are all binary, this halves the tableau versus
// writing each bound as a row. The two encodings are differentially tested
// against each other.
type BoundedProblem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
	Lower       []float64 // default 0
	Upper       []float64 // +Inf allowed
}

// NewBoundedProblem returns a problem with n variables, bounds [0, +Inf).
func NewBoundedProblem(n int) *BoundedProblem {
	p := &BoundedProblem{
		NumVars:   n,
		Objective: make([]float64, n),
		Lower:     make([]float64, n),
		Upper:     make([]float64, n),
	}
	for i := range p.Upper {
		p.Upper[i] = math.Inf(1)
	}
	return p
}

// SetObjective sets variable j's objective coefficient.
func (p *BoundedProblem) SetObjective(j int, c float64) { p.Objective[j] = c }

// SetBounds sets lo ≤ x_j ≤ up.
func (p *BoundedProblem) SetBounds(j int, lo, up float64) {
	p.Lower[j] = lo
	p.Upper[j] = up
}

// AddConstraint appends a row (coefficients copied).
func (p *BoundedProblem) AddConstraint(coeffs map[int]float64, rel Rel, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	for j, v := range coeffs {
		cp[j] = v
	}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: cp, Rel: rel, RHS: rhs})
}

// Clone deep-copies the problem.
func (p *BoundedProblem) Clone() *BoundedProblem {
	q := NewBoundedProblem(p.NumVars)
	copy(q.Objective, p.Objective)
	copy(q.Lower, p.Lower)
	copy(q.Upper, p.Upper)
	q.Constraints = make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		cp := make(map[int]float64, len(c.Coeffs))
		for j, v := range c.Coeffs {
			cp[j] = v
		}
		q.Constraints[i] = Constraint{Coeffs: cp, Rel: c.Rel, RHS: c.RHS}
	}
	return q
}

// Validate checks structural sanity.
func (p *BoundedProblem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: no variables")
	}
	if len(p.Objective) != p.NumVars || len(p.Lower) != p.NumVars || len(p.Upper) != p.NumVars {
		return fmt.Errorf("lp: objective/bounds length mismatch")
	}
	for j := 0; j < p.NumVars; j++ {
		if math.IsInf(p.Lower[j], 0) || math.IsNaN(p.Lower[j]) || math.IsNaN(p.Upper[j]) {
			return fmt.Errorf("lp: invalid bounds on variable %d", j)
		}
		if p.Lower[j] > p.Upper[j] {
			return fmt.Errorf("lp: empty bound interval on variable %d [%v, %v]", j, p.Lower[j], p.Upper[j])
		}
	}
	for i, c := range p.Constraints {
		for j := range c.Coeffs {
			if j < 0 || j >= p.NumVars {
				return fmt.Errorf("lp: constraint %d references variable %d", i, j)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has invalid RHS %v", i, c.RHS)
		}
	}
	return nil
}

// SolveBounded solves the problem with a bounded-variable two-phase primal
// simplex.
func SolveBounded(p *BoundedProblem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	// Shift lower bounds to zero: x = lo + x', 0 ≤ x' ≤ up − lo.
	shifted := p.Clone()
	for i := range shifted.Constraints {
		c := &shifted.Constraints[i]
		for j, v := range c.Coeffs {
			c.RHS -= v * p.Lower[j]
		}
	}
	for j := 0; j < p.NumVars; j++ {
		shifted.Upper[j] = p.Upper[j] - p.Lower[j]
		shifted.Lower[j] = 0
	}

	t := newBoundedTableau(shifted)
	if t.numArtificial > 0 {
		t.setPhase(true, nil)
		st := t.iterate()
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: t.iters}, nil
		}
		if t.zval > 1e-7 {
			return Solution{Status: Infeasible, Iters: t.iters}, nil
		}
		t.driveOutArtificials()
	}
	t.setPhase(false, shifted.Objective)
	switch t.iterate() {
	case Unbounded:
		return Solution{Status: Unbounded, Iters: t.iters}, nil
	case IterLimit:
		return Solution{Status: IterLimit, Iters: t.iters}, nil
	}
	x := t.extract(p.NumVars)
	obj := 0.0
	for j := 0; j < p.NumVars; j++ {
		x[j] += p.Lower[j] // undo the shift
		obj += p.Objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj, Iters: t.iters}, nil
}

// boundedTableau separates the coefficient matrix (B⁻¹A, maintained by
// Gauss-Jordan pivots) from the current basic-variable values (maintained
// by movement updates), which is what makes nonbasic-at-upper states and
// bound flips straightforward.
type boundedTableau struct {
	coef          [][]float64 // (m+1) rows × nTotal columns; row m = reduced costs
	val           []float64   // current value of each basic variable (per row)
	zval          float64     // current objective value
	basis         []int
	inBasis       []bool
	atUpper       []bool
	upper         []float64
	cost          []float64 // current phase's objective by column
	nStruct       int
	nSlack        int
	numArtificial int
	nTotal        int
	artCols       []int
	iters         int
	maxIters      int
}

func newBoundedTableau(p *BoundedProblem) *boundedTableau {
	m := len(p.Constraints)
	nStruct := p.NumVars
	nSlack, nArt := 0, 0
	for _, c := range p.Constraints {
		rel := c.Rel
		if c.RHS < 0 {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	nTotal := nStruct + nSlack + nArt
	t := &boundedTableau{
		coef:          make([][]float64, m+1),
		val:           make([]float64, m),
		basis:         make([]int, m),
		inBasis:       make([]bool, nTotal),
		atUpper:       make([]bool, nTotal),
		upper:         make([]float64, nTotal),
		nStruct:       nStruct,
		nSlack:        nSlack,
		numArtificial: nArt,
		nTotal:        nTotal,
		maxIters:      20000 + 200*(m+nTotal),
	}
	for j := 0; j < nTotal; j++ {
		if j < nStruct {
			t.upper[j] = p.Upper[j]
		} else {
			t.upper[j] = math.Inf(1)
		}
	}
	for i := range t.coef {
		t.coef[i] = make([]float64, nTotal)
	}
	slackCol, artCol := nStruct, nStruct+nSlack
	for i, c := range p.Constraints {
		row := t.coef[i]
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			rel = flip(rel)
		}
		for j, v := range c.Coeffs {
			row[j] += sign * v
		}
		t.val[i] = sign * c.RHS
		switch rel {
		case LE:
			row[slackCol] = 1
			t.setBasis(i, slackCol)
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.setBasis(i, artCol)
			t.artCols = append(t.artCols, artCol)
			artCol++
		case EQ:
			row[artCol] = 1
			t.setBasis(i, artCol)
			t.artCols = append(t.artCols, artCol)
			artCol++
		}
	}
	return t
}

func (t *boundedTableau) m() int { return len(t.coef) - 1 }

func (t *boundedTableau) setBasis(r, col int) {
	t.basis[r] = col
	t.inBasis[col] = true
}

// setPhase installs the phase objective (phase 1: Σ artificials) as reduced
// costs and recomputes zval for the current solution.
func (t *boundedTableau) setPhase(phase1 bool, c []float64) {
	t.cost = make([]float64, t.nTotal)
	if phase1 {
		for _, a := range t.artCols {
			t.cost[a] = 1
		}
	} else {
		copy(t.cost, c)
	}
	obj := t.coef[t.m()]
	copy(obj, t.cost)
	for r, bj := range t.basis {
		factor := obj[bj]
		if factor == 0 {
			continue
		}
		row := t.coef[r]
		for j := range obj {
			obj[j] -= factor * row[j]
		}
	}
	t.zval = 0
	for r, bj := range t.basis {
		t.zval += t.cost[bj] * t.val[r]
	}
	for j := 0; j < t.nTotal; j++ {
		if t.atUpper[j] && !t.inBasis[j] && !math.IsInf(t.upper[j], 1) {
			t.zval += t.cost[j] * t.upper[j]
		}
	}
}

// iterate runs bounded-variable simplex pivots until optimality,
// unboundedness, or the iteration cap.
func (t *boundedTableau) iterate() Status {
	isArt := make([]bool, t.nTotal)
	for _, c := range t.artCols {
		isArt[c] = true
	}
	blandAfter := t.maxIters / 2
	for ; t.iters < t.maxIters; t.iters++ {
		obj := t.coef[t.m()]
		enter, dir := -1, 1.0
		if t.iters < blandAfter {
			best := eps
			for j := 0; j < t.nTotal; j++ {
				if isArt[j] || t.inBasis[j] {
					continue
				}
				if !t.atUpper[j] && -obj[j] > best {
					best, enter, dir = -obj[j], j, 1
				} else if t.atUpper[j] && obj[j] > best {
					best, enter, dir = obj[j], j, -1
				}
			}
		} else { // Bland
			for j := 0; j < t.nTotal; j++ {
				if isArt[j] || t.inBasis[j] {
					continue
				}
				if !t.atUpper[j] && obj[j] < -eps {
					enter, dir = j, 1
					break
				}
				if t.atUpper[j] && obj[j] > eps {
					enter, dir = j, -1
					break
				}
			}
		}
		if enter == -1 {
			return Optimal
		}

		// Ratio test: the entering variable moves by dist ≥ 0 in direction
		// dir; basic r changes by −dir·a_r·dist and must stay in
		// [0, upper(basis r)]; the entering variable itself is limited by
		// its interval length.
		limit := t.upper[enter]
		leave, leaveToUpper := -1, false
		for r := 0; r < t.m(); r++ {
			a := dir * t.coef[r][enter]
			switch {
			case a > eps: // basic decreases toward 0
				if ratio := t.val[r] / a; ratio < limit-eps {
					limit, leave, leaveToUpper = ratio, r, false
				} else if ratio <= limit+eps && leave != -1 && !leaveToUpper &&
					t.basis[r] < t.basis[leave] {
					leave = r // Bland-style tie-break for anti-cycling
				}
			case a < -eps: // basic increases toward its upper bound
				ub := t.upper[t.basis[r]]
				if math.IsInf(ub, 1) {
					continue
				}
				if ratio := (ub - t.val[r]) / (-a); ratio < limit-eps {
					limit, leave, leaveToUpper = ratio, r, true
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		if limit < 0 {
			limit = 0
		}

		if leave == -1 {
			t.boundFlip(enter, dir)
			continue
		}
		t.moveAndPivot(enter, dir, limit, leave, leaveToUpper)
	}
	return IterLimit
}

// boundFlip moves nonbasic variable j across its whole interval.
func (t *boundedTableau) boundFlip(j int, dir float64) {
	dist := t.upper[j]
	for r := 0; r < t.m(); r++ {
		t.val[r] -= dir * dist * t.coef[r][j]
	}
	t.zval += t.coef[t.m()][j] * dir * dist
	t.atUpper[j] = dir > 0
}

// moveAndPivot advances the entering variable by dist, retires the leaving
// basic variable at the bound it hit, and pivots the coefficient matrix.
func (t *boundedTableau) moveAndPivot(enter int, dir, dist float64, leave int, leaveToUpper bool) {
	// Value updates for all basic rows.
	for r := 0; r < t.m(); r++ {
		t.val[r] -= dir * dist * t.coef[r][enter]
	}
	t.zval += t.coef[t.m()][enter] * dir * dist

	// The entering variable's new value.
	enterVal := dist
	if dir < 0 {
		enterVal = t.upper[enter] - dist
	}
	leavingCol := t.basis[leave]
	t.inBasis[leavingCol] = false
	t.atUpper[leavingCol] = leaveToUpper
	t.atUpper[enter] = false
	t.setBasis(leave, enter)
	t.val[leave] = enterVal

	// Gauss-Jordan on coefficients only.
	pr := t.coef[leave]
	pv := pr[enter]
	for j := range pr {
		pr[j] /= pv
	}
	for r := range t.coef {
		if r == leave {
			continue
		}
		f := t.coef[r][enter]
		if f == 0 {
			continue
		}
		tr := t.coef[r]
		for j := range tr {
			tr[j] -= f * pr[j]
		}
		tr[enter] = 0
	}
}

// driveOutArtificials pivots zero-valued basic artificials out after
// phase 1. Nonbasic-at-upper columns are eligible too (a degenerate pivot
// entering from the upper bound): skipping them can leave an artificial
// basic on a row whose only nonzero structural column sits at its upper
// bound — e.g. an equality that forces a variable exactly to that bound.
// Any artificial that still cannot be pivoted out (redundant row) is then
// pinned by clamping every artificial's upper bound to zero, so the phase-2
// ratio test can never move one off zero and silently break feasibility.
func (t *boundedTableau) driveOutArtificials() {
	isArt := make([]bool, t.nTotal)
	for _, c := range t.artCols {
		isArt[c] = true
	}
	for r := 0; r < t.m(); r++ {
		if !isArt[t.basis[r]] {
			continue
		}
		for j := 0; j < t.nStruct+t.nSlack; j++ {
			if math.Abs(t.coef[r][j]) > 1e-7 && !t.inBasis[j] {
				dir := 1.0
				if t.atUpper[j] {
					dir = -1
				}
				t.moveAndPivot(j, dir, 0, r, false)
				break
			}
		}
	}
	for _, a := range t.artCols {
		t.upper[a] = 0
	}
}

// extract returns the structural solution in shifted space.
func (t *boundedTableau) extract(n int) []float64 {
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		if t.atUpper[j] && !t.inBasis[j] && !math.IsInf(t.upper[j], 1) {
			x[j] = t.upper[j]
		}
	}
	for r, bj := range t.basis {
		if bj < n {
			x[bj] = t.val[r]
		}
	}
	return x
}
