package lp

import "math"

// denseWarmSolver is the dense-tableau twin of WarmSolver, kept in the tests
// as the differential reference for the sparse revised simplex: it maintains
// the full B⁻¹A matrix with the identical phase structure, pivot rules and
// tolerances, so the two visit the same vertices and "sparse ≡ dense
// bitwise" (DESIGN.md §6) is a checkable statement.
type denseWarmSolver struct {
	base  *BoundedProblem
	t     warmTableau
	ready bool
}

func newDenseWarmSolver(base *BoundedProblem) *denseWarmSolver {
	return &denseWarmSolver{base: base}
}

// SolveWithBounds mirrors WarmSolver.SolveWithBounds step for step.
func (w *denseWarmSolver) SolveWithBounds(lower, upper []float64) (Solution, error) {
	if w.ready {
		w.t.iters = 0
		resumed := w.warmApply(lower, upper)
		if !resumed {
			switch w.t.dualResume() {
			case Optimal:
				resumed = true
			case Infeasible:
				w.ready = false
				return Solution{Status: Infeasible, Iters: w.t.iters}, nil
			}
		}
		if resumed {
			st := w.t.iterate()
			if st == Optimal {
				return w.extractSolution(), nil
			}
			w.ready = false
			return Solution{Status: st, Iters: w.t.iters}, nil
		}
	}
	w.ready = false
	return w.coldSolve(lower, upper)
}

// warmApply moves the tableau from its current bounds to (lower, upper):
// nonbasic columns shift to their new bound values (updating every basic
// value by coef·delta), basic columns just adopt the new limits. It reports
// whether the existing basis is still primal feasible; when it is not the
// caller falls back to a cold start.
func (w *denseWarmSolver) warmApply(lower, upper []float64) bool {
	t := &w.t
	m := t.m()
	for j := 0; j < t.nStruct; j++ {
		nl, nu := lower[j], upper[j]
		ol, ou := t.lower[j], t.upper[j]
		if nl == ol && nu == ou {
			continue
		}
		if !t.inBasis[j] {
			oldv, newv := ol, nl
			if t.atUpper[j] {
				oldv = ou
				if math.IsInf(nu, 1) {
					t.atUpper[j] = false // upper bound vanished; park at lower
					newv = nl
				} else {
					newv = nu
				}
			}
			if d := newv - oldv; d != 0 {
				for r := 0; r < m; r++ {
					t.val[r] -= t.coef[r][j] * d
				}
			}
		}
		t.lower[j], t.upper[j] = nl, nu
	}
	for r := 0; r < m; r++ {
		bj := t.basis[r]
		if t.val[r] < t.lower[bj]-warmFeasTol {
			return false
		}
		if up := t.upper[bj]; !math.IsInf(up, 1) && t.val[r] > up+warmFeasTol {
			return false
		}
		// A basic artificial pushed off zero means the rows themselves became
		// inconsistent under the new bounds; only phase 1 can decide that.
		if t.isArt[bj] && t.val[r] > warmFeasTol {
			return false
		}
	}
	return true
}

// dualResume is sparseTableau.dualResume on the dense tableau: the identical
// leaving-row and entering-column rule read straight off the maintained rows,
// keeping sparse ≡ dense bitwise.
func (t *warmTableau) dualResume() Status {
	m := t.m()
	obj := t.coef[m]
	maxSteps := 4 * (m + t.nTotal)
	for steps := 0; steps < maxSteps; steps++ {
		// Leaving row: the most-violated basic variable, lowest row on ties.
		r, below := -1, false
		worst := warmFeasTol
		for i := 0; i < m; i++ {
			bj := t.basis[i]
			if d := t.lower[bj] - t.val[i]; d > worst {
				worst, r, below = d, i, true
			}
			if up := t.upper[bj]; !math.IsInf(up, 1) {
				if d := t.val[i] - up; d > worst {
					worst, r, below = d, i, false
				}
			}
		}
		if r == -1 {
			return Optimal
		}
		// Entering column: among nonbasic columns whose movement pushes the
		// violated basic back toward its bound, the smallest dual ratio
		// |reduced cost| / |pivot| keeps the remaining columns dual feasible.
		row := t.coef[r]
		enter, dir, bestRatio := -1, 1.0, math.Inf(1)
		for j := 0; j < t.nTotal; j++ {
			if t.isArt[j] || t.inBasis[j] || !(t.upper[j] > t.lower[j]) {
				continue
			}
			d := 1.0
			if t.atUpper[j] {
				d = -1
			}
			// val[r] changes by −a per unit of entering movement.
			a := d * row[j]
			if below {
				if a >= -eps { // need val[r] to increase
					continue
				}
			} else if a <= eps { // need val[r] to decrease
				continue
			}
			rc := d * obj[j]
			if rc < 0 {
				// Slightly dual-infeasible columns (a bound that vanished
				// re-parked the column) price as ratio zero; the primal
				// cleanup pass restores optimality afterwards.
				rc = 0
			}
			if ratio := rc / math.Abs(a); ratio < bestRatio {
				bestRatio, enter, dir = ratio, j, d
			}
		}
		if enter == -1 {
			return Infeasible
		}
		a := dir * row[enter]
		need := worst / math.Abs(a)
		t.moveAndPivot(enter, dir, need, r, !below)
		t.iters++
	}
	return IterLimit
}

// coldSolve rebuilds the tableau from scratch under the given bounds (two
// phases), reusing the row storage from previous solves.
func (w *denseWarmSolver) coldSolve(lower, upper []float64) (Solution, error) {
	w.t.build(w.base, lower, upper)
	t := &w.t
	if t.numArtificial > 0 {
		t.setPhase(true, nil)
		st := t.iterate()
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: t.iters}, nil
		}
		if t.zval > warmFeasTol {
			return Solution{Status: Infeasible, Iters: t.iters}, nil
		}
		t.driveOutArtificials()
	}
	t.setPhase(false, w.base.Objective)
	switch t.iterate() {
	case Unbounded:
		return Solution{Status: Unbounded, Iters: t.iters}, nil
	case IterLimit:
		return Solution{Status: IterLimit, Iters: t.iters}, nil
	}
	return w.extractSolution(), nil
}

// extractSolution reads the structural solution off an Optimal tableau and
// marks the solver warm-ready. The objective is recomputed from x (not from
// the tableau's incrementally tracked zval) so warm chains cannot drift.
func (w *denseWarmSolver) extractSolution() Solution {
	t := &w.t
	x := make([]float64, w.base.NumVars)
	for j := range x {
		if t.atUpper[j] && !t.inBasis[j] {
			x[j] = t.upper[j]
		} else {
			x[j] = t.lower[j]
		}
	}
	for r, bj := range t.basis {
		if bj < len(x) {
			x[bj] = t.val[r]
		}
	}
	canonZeros(x)
	obj := 0.0
	for j, c := range w.base.Objective {
		obj += c * x[j]
	}
	w.ready = true
	return Solution{Status: Optimal, X: x, Objective: obj, Iters: t.iters}
}

// warmTableau is a bounded-variable simplex tableau with native [lo, up]
// column bounds (boundedTableau, by contrast, works in lower-shifted space).
// coef holds B⁻¹A (row m = the current phase's reduced costs), val the basic
// variable values; zval incrementally tracks the phase objective and is only
// consulted for the phase-1 feasibility verdict.
type warmTableau struct {
	coef    [][]float64
	flat    []float64 // backing storage for coef, reused across rebuilds
	val     []float64
	zval    float64
	basis   []int
	inBasis []bool
	atUpper []bool
	lower   []float64 // per column; slack/artificial columns are [0, +Inf)
	upper   []float64
	cost    []float64
	isArt   []bool
	artCols []int

	nStruct       int
	nSlack        int
	numArtificial int
	nTotal        int
	iters         int
	maxIters      int
}

func (t *warmTableau) m() int { return len(t.coef) - 1 }

// grow (re)slices every array for an (m+1)×nTotal tableau, zeroing coef and
// resetting the column state, while keeping backing storage across calls.
func (t *warmTableau) grow(m, nTotal, nArt int) {
	need := (m + 1) * nTotal
	if cap(t.flat) < need {
		t.flat = make([]float64, need)
	}
	t.flat = t.flat[:need]
	for i := range t.flat {
		t.flat[i] = 0
	}
	if cap(t.coef) < m+1 {
		t.coef = make([][]float64, m+1)
	}
	t.coef = t.coef[:m+1]
	for i := 0; i <= m; i++ {
		t.coef[i] = t.flat[i*nTotal : (i+1)*nTotal : (i+1)*nTotal]
	}
	growF := func(s []float64, n int) []float64 {
		if cap(s) < n {
			return make([]float64, n)
		}
		return s[:n]
	}
	growI := func(s []int, n int) []int {
		if cap(s) < n {
			return make([]int, n)
		}
		return s[:n]
	}
	growB := func(s []bool, n int) []bool {
		if cap(s) < n {
			return make([]bool, n)
		}
		return s[:n]
	}
	t.val = growF(t.val, m)
	t.basis = growI(t.basis, m)
	t.lower = growF(t.lower, nTotal)
	t.upper = growF(t.upper, nTotal)
	t.cost = growF(t.cost, nTotal)
	t.inBasis = growB(t.inBasis, nTotal)
	t.atUpper = growB(t.atUpper, nTotal)
	t.isArt = growB(t.isArt, nTotal)
	for j := 0; j < nTotal; j++ {
		t.inBasis[j] = false
		t.atUpper[j] = false
		t.isArt[j] = false
	}
	t.artCols = growI(t.artCols, nArt)[:0]
}

// build constructs the cold tableau for the base problem under the given
// structural bounds. All structural variables start nonbasic at their lower
// bound; each row's slack or artificial absorbs the residual
// r_i = b_i − Σ a_ij·lo_j, with the row negated first when r_i < 0 so the
// initial basic values are nonnegative (the native-bounds analogue of
// newBoundedTableau's shifted-space sign normalization).
func (t *warmTableau) build(p *BoundedProblem, lower, upper []float64) {
	m := len(p.Constraints)
	nStruct := p.NumVars
	nSlack, nArt := 0, 0
	for _, c := range p.Constraints {
		resid := c.RHS
		for j, v := range c.Coeffs {
			resid -= v * lower[j]
		}
		rel := c.Rel
		if resid < 0 {
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
	t.grow(m, nTotal, nArt)
	t.nStruct, t.nSlack, t.numArtificial, t.nTotal = nStruct, nSlack, nArt, nTotal
	t.maxIters = 20000 + 200*(m+nTotal)
	t.iters = 0

	copy(t.lower[:nStruct], lower)
	copy(t.upper[:nStruct], upper)
	for j := nStruct; j < nTotal; j++ {
		t.lower[j] = 0
		t.upper[j] = math.Inf(1)
	}
	slackCol, artCol := nStruct, nStruct+nSlack
	for i, c := range p.Constraints {
		row := t.coef[i]
		resid := c.RHS
		for j, v := range c.Coeffs {
			resid -= v * lower[j]
		}
		sign := 1.0
		rel := c.Rel
		if resid < 0 {
			sign = -1
			rel = flip(rel)
		}
		for j, v := range c.Coeffs {
			row[j] += sign * v
		}
		t.val[i] = sign * resid
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
			t.isArt[artCol] = true
			artCol++
		case EQ:
			row[artCol] = 1
			t.setBasis(i, artCol)
			t.artCols = append(t.artCols, artCol)
			t.isArt[artCol] = true
			artCol++
		}
	}
}

func (t *warmTableau) setBasis(r, col int) {
	t.basis[r] = col
	t.inBasis[col] = true
}

// nonbasicValue is the value a nonbasic column currently sits at.
func (t *warmTableau) nonbasicValue(j int) float64 {
	if t.atUpper[j] {
		return t.upper[j]
	}
	return t.lower[j]
}

// setPhase installs the phase objective (phase 1: Σ artificials; phase 2:
// the structural costs) as reduced costs and recomputes zval for the current
// point, including nonbasic columns parked at nonzero bounds.
func (t *warmTableau) setPhase(phase1 bool, c []float64) {
	for j := range t.cost {
		t.cost[j] = 0
	}
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
		if t.inBasis[j] || t.cost[j] == 0 {
			continue
		}
		if v := t.nonbasicValue(j); !math.IsInf(v, 1) && v != 0 {
			t.zval += t.cost[j] * v
		}
	}
}

// iterate runs bounded-variable simplex pivots until optimality,
// unboundedness, or the iteration cap — boundedTableau.iterate generalized
// to native [lo, up] intervals (entering moves away from whichever bound the
// column sits at; ratio tests measure distance to each basic variable's own
// lower/upper bound rather than to [0, upper]).
func (t *warmTableau) iterate() Status {
	blandAfter := t.maxIters / 2
	for ; t.iters < t.maxIters; t.iters++ {
		obj := t.coef[t.m()]
		enter, dir := -1, 1.0
		if t.iters < blandAfter {
			best := eps
			for j := 0; j < t.nTotal; j++ {
				if t.isArt[j] || t.inBasis[j] {
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
				if t.isArt[j] || t.inBasis[j] {
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

		// Ratio test: the entering variable moves dist ≥ 0 in direction dir;
		// basic r changes by −dir·a_r·dist and must stay within its own
		// [lower, upper]; the entering variable is limited by its interval.
		limit := t.upper[enter] - t.lower[enter]
		leave, leaveToUpper := -1, false
		for r := 0; r < t.m(); r++ {
			a := dir * t.coef[r][enter]
			switch {
			case a > eps: // basic decreases toward its lower bound
				if ratio := (t.val[r] - t.lower[t.basis[r]]) / a; ratio < limit-eps {
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
func (t *warmTableau) boundFlip(j int, dir float64) {
	dist := t.upper[j] - t.lower[j]
	for r := 0; r < t.m(); r++ {
		t.val[r] -= dir * dist * t.coef[r][j]
	}
	t.zval += t.coef[t.m()][j] * dir * dist
	t.atUpper[j] = dir > 0
}

// moveAndPivot advances the entering variable by dist, retires the leaving
// basic variable at the bound it hit, and pivots the coefficient matrix.
func (t *warmTableau) moveAndPivot(enter int, dir, dist float64, leave int, leaveToUpper bool) {
	for r := 0; r < t.m(); r++ {
		t.val[r] -= dir * dist * t.coef[r][enter]
	}
	t.zval += t.coef[t.m()][enter] * dir * dist

	enterVal := t.lower[enter] + dist
	if dir < 0 {
		enterVal = t.upper[enter] - dist
	}
	leavingCol := t.basis[leave]
	t.inBasis[leavingCol] = false
	t.atUpper[leavingCol] = leaveToUpper
	t.atUpper[enter] = false
	t.setBasis(leave, enter)
	t.val[leave] = enterVal

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

// driveOutArtificials pivots zero-valued basic artificials out after phase 1.
// Nonbasic-at-upper columns are eligible (degenerate pivot entering from the
// upper bound), and artificial upper bounds are clamped to zero afterwards so
// a still-basic artificial on a redundant row can never leave zero in
// phase 2 — see boundedTableau.driveOutArtificials.
func (t *warmTableau) driveOutArtificials() {
	for r := 0; r < t.m(); r++ {
		if !t.isArt[t.basis[r]] {
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
