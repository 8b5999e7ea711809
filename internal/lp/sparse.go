package lp

// Sparse revised simplex (DESIGN.md §6), the engine behind WarmSolver. A
// dense tableau maintains the full B⁻¹A matrix and pays O(m·n) per pivot;
// SoCL's node relaxations are overwhelmingly sparse (each request row touches
// only the services on its chain), so this engine keeps the constraint matrix
// in CSC form and represents B⁻¹ as a product-form eta file instead:
//
//   - pricing computes y = c_B B⁻¹ by one BTRAN sweep and reduced costs by
//     sparse column dots (no maintained objective row);
//   - the ratio test and basic-value updates use the FTRANed entering column,
//     whose nonzeros are exactly the rows a dense pivot would touch;
//   - each pivot appends one eta (the entering column + pivot row), and the
//     file is rebuilt from the original columns — refactorization — when the
//     update count or fill crosses a threshold, or when a tiny pivot signals
//     numerical drift; refactorization also refreshes the basic values from
//     the new factorization, which is the drift correction that keeps long
//     warm chains honest.
//
// The phase structure, pivot rules (Dantzig with a Bland fallback after
// maxIters/2, bound flips, the basis-index ratio tie-break) and tolerances
// mirror the dense warmTableau of the package's tests exactly, so the two
// explore the same vertices up to floating-point rounding — the differential
// reference that pins this engine.

import (
	"math"
	"sort"
)

// refactorPivTol is the refactorization pivot threshold: a slot whose FTRANed
// pivot entry is smaller is deferred to a later elimination round.
const refactorPivTol = 1e-8

// driftPivTol flags a suspiciously small simplex pivot on a long eta chain;
// the solver refactorizes and re-derives the iteration instead of trusting it.
const driftPivTol = 1e-7

// cscMatrix is the immutable structural matrix of a BoundedProblem in
// compressed-sparse-column form, with a CSR mirror (for row residuals), the
// right-hand side, and the fixed slack layout (one slack column per LE/GE
// row). It is built once per WarmSolver and shared by every snapshot.
type cscMatrix struct {
	m, n int // rows, structural columns

	colp []int32 // n+1 column offsets into rows/vals
	rows []int32
	vals []float64

	rowp  []int32 // m+1 row offsets into cols/rvals (CSR mirror)
	cols  []int32
	rvals []float64

	rhs       []float64
	rel       []Rel
	slackCol  []int32   // per row: slack column (total index) or -1 for EQ
	slackSign []float64 // +1 for LE rows, -1 for GE rows
	nSlack    int
}

// newCSC builds the CSC/CSR forms from the row-major constraint maps. Entries
// within a row are sorted by column and exact zeros are dropped, so the
// layout is deterministic regardless of map iteration order.
func newCSC(p *BoundedProblem) *cscMatrix {
	m, n := len(p.Constraints), p.NumVars
	a := &cscMatrix{m: m, n: n}
	a.rowp = make([]int32, m+1)
	a.rhs = make([]float64, m)
	a.rel = make([]Rel, m)
	a.slackCol = make([]int32, m)
	a.slackSign = make([]float64, m)

	nnz := 0
	for i, c := range p.Constraints {
		for _, v := range c.Coeffs {
			if v != 0 {
				nnz++
			}
		}
		a.rhs[i] = c.RHS
		a.rel[i] = c.Rel
	}
	a.cols = make([]int32, 0, nnz)
	a.rvals = make([]float64, 0, nnz)
	colCount := make([]int32, n+1)

	var rowCols []int
	for i, c := range p.Constraints {
		rowCols = rowCols[:0]
		for j, v := range c.Coeffs {
			if v != 0 {
				rowCols = append(rowCols, j)
			}
		}
		sort.Ints(rowCols)
		for _, j := range rowCols {
			a.cols = append(a.cols, int32(j))
			a.rvals = append(a.rvals, c.Coeffs[j])
			colCount[j+1]++
		}
		a.rowp[i+1] = int32(len(a.cols))
	}

	// CSC from CSR: prefix-sum the column counts, then scatter rows in order,
	// which leaves each column's row indices sorted ascending.
	a.colp = colCount
	for j := 0; j < n; j++ {
		a.colp[j+1] += a.colp[j]
	}
	a.rows = make([]int32, nnz)
	a.vals = make([]float64, nnz)
	next := make([]int32, n)
	for j := 0; j < n; j++ {
		next[j] = a.colp[j]
	}
	for i := 0; i < m; i++ {
		for k := a.rowp[i]; k < a.rowp[i+1]; k++ {
			j := a.cols[k]
			a.rows[next[j]] = int32(i)
			a.vals[next[j]] = a.rvals[k]
			next[j]++
		}
	}

	slack := int32(n)
	for i := 0; i < m; i++ {
		switch a.rel[i] {
		case LE:
			a.slackCol[i], a.slackSign[i] = slack, 1
			slack++
		case GE:
			a.slackCol[i], a.slackSign[i] = slack, -1
			slack++
		default:
			a.slackCol[i] = -1
		}
	}
	a.nSlack = int(slack) - n
	return a
}

// etaEntry is one off-pivot nonzero of an eta column.
type etaEntry struct {
	i int32
	v float64
}

// etaElem is one elementary factor of the product-form inverse
// B⁻¹ = E_K … E_1: the pivot row r, the pre-division pivot value pv, and the
// off-pivot nonzeros of the (FTRANed) entering column. Immutable once
// appended, so snapshots share the entry slices.
type etaElem struct {
	r   int32
	pv  float64
	ent []etaEntry
}

// sparseTableau is the revised-simplex counterpart of warmTableau: the same
// basis/bounds/phase state, but no coefficient matrix — columns are read from
// the shared cscMatrix and transformed through the eta file on demand.
type sparseTableau struct {
	a *cscMatrix // shared, immutable

	nStruct       int
	nSlack        int
	numArtificial int
	nTotal        int

	lrow  []int32   // logical (slack+artificial) columns: row index
	lsign []float64 // and coefficient sign

	val     []float64 // basic variable values, one per row slot
	basis   []int
	inBasis []bool
	atUpper []bool
	lower   []float64
	upper   []float64
	cost    []float64 // current phase costs
	isArt   []bool
	artCols []int

	etas     []etaElem
	baseEtas int // etas laid down by the last build/refactorization
	etaNNZ   int // off-pivot nonzeros appended since then

	// entArena backs the etaElem.ent slices so pivots don't allocate.
	// Appending is always safe (shared ent slices end at or before the
	// current len), but resetting to [:0] is not once a snapshot/restore
	// holds headers into this array — resetArena abandons it then.
	entArena    []etaEntry
	arenaShared bool

	iters       int
	maxIters    int
	updLimit    int // update etas beyond baseEtas that trigger refactorization
	updLimitCfg int // in-package tests override updLimit with this (0 = heuristic)
	nnzLimit    int // update fill that triggers refactorization
	refactors   int // mid-solve refactorization count (tests observe)

	// Scratch vectors (length m), never part of snapshots.
	w       []float64
	y       []float64
	rhsv    []float64
	perm    []int
	basis2  []int
	rowFree []bool
}

func (t *sparseTableau) m() int { return t.a.m }

// grow (re)sizes every array for the given column count, reusing backing
// storage across rebuilds, and resets the per-column state.
func (t *sparseTableau) grow(nTotal, nArt int) {
	m := t.a.m
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
	growI32 := func(s []int32, n int) []int32 {
		if cap(s) < n {
			return make([]int32, n)
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
	t.lrow = growI32(t.lrow, nTotal-t.nStruct)
	t.lsign = growF(t.lsign, nTotal-t.nStruct)
	t.artCols = growI(t.artCols, nArt)[:0]
	t.w = growF(t.w, m)
	t.y = growF(t.y, m)
	t.rhsv = growF(t.rhsv, m)
	t.perm = growI(t.perm, m)
	t.basis2 = growI(t.basis2, m)
	t.rowFree = growB(t.rowFree, m)
}

// build constructs the cold initial state for the base problem under the
// given structural bounds: structurals nonbasic at their lower bound, each
// row's slack basic when the residual r_i = b_i − Σ a_ij·lo_j has the
// feasible sign, an artificial column (coefficient sign(r_i)) basic at |r_i|
// otherwise. This is the native-sign analogue of warmTableau.build's row
// negation: where the dense build flips a row, this one gives the basic
// logical column a −1 coefficient, which the initial eta file absorbs.
func (t *sparseTableau) build(p *BoundedProblem, lower, upper []float64) {
	a := t.a
	m := a.m
	t.nStruct = a.n
	t.nSlack = a.nSlack

	// First pass: residuals and the artificial count. (rhsv is sized here
	// because grow can only run once the artificial count is known.)
	if cap(t.rhsv) < m {
		t.rhsv = make([]float64, m)
	}
	resid := t.rhsv[:m]
	for i := 0; i < m; i++ {
		r := a.rhs[i]
		for k := a.rowp[i]; k < a.rowp[i+1]; k++ {
			r -= a.rvals[k] * lower[a.cols[k]]
		}
		resid[i] = r
	}
	nArt := 0
	for i := 0; i < m; i++ {
		switch a.rel[i] {
		case LE:
			if resid[i] < 0 {
				nArt++
			}
		case GE:
			if resid[i] >= 0 {
				nArt++
			}
		case EQ:
			nArt++
		}
	}
	t.numArtificial = nArt
	t.nTotal = t.nStruct + t.nSlack + nArt
	t.grow(t.nTotal, nArt)
	t.maxIters = 20000 + 200*(m+t.nTotal)
	t.iters = 0
	t.updLimit = t.nStruct / 2
	if t.updLimit < 48 {
		t.updLimit = 48
	}
	if t.updLimitCfg > 0 {
		t.updLimit = t.updLimitCfg
	}
	t.nnzLimit = 16*m + 2*len(a.vals)

	copy(t.lower[:t.nStruct], lower)
	copy(t.upper[:t.nStruct], upper)
	for j := t.nStruct; j < t.nTotal; j++ {
		t.lower[j] = 0
		t.upper[j] = math.Inf(1)
	}
	for i := 0; i < m; i++ {
		if sc := a.slackCol[i]; sc >= 0 {
			t.lrow[sc-int32(t.nStruct)] = int32(i)
			t.lsign[sc-int32(t.nStruct)] = a.slackSign[i]
		}
	}

	t.etas = t.etas[:0]
	t.etaNNZ = 0
	t.resetArena()
	artCol := t.nStruct + t.nSlack
	for i := 0; i < m; i++ {
		r := resid[i]
		slackBasic := false
		switch a.rel[i] {
		case LE:
			slackBasic = r >= 0
		case GE:
			slackBasic = r < 0
		}
		if slackBasic {
			sc := int(a.slackCol[i])
			t.basis[i] = sc
			t.inBasis[sc] = true
			if a.slackSign[i] < 0 {
				t.val[i] = -r
				t.etas = append(t.etas, etaElem{r: int32(i), pv: -1})
			} else {
				t.val[i] = r
			}
			continue
		}
		sign := 1.0
		if r < 0 {
			sign = -1
		}
		t.lrow[artCol-t.nStruct] = int32(i)
		t.lsign[artCol-t.nStruct] = sign
		t.basis[i] = artCol
		t.inBasis[artCol] = true
		t.isArt[artCol] = true
		t.artCols = append(t.artCols, artCol)
		t.val[i] = sign * r
		if sign < 0 {
			t.etas = append(t.etas, etaElem{r: int32(i), pv: -1})
		}
		artCol++
	}
	t.baseEtas = len(t.etas)
}

// nonbasicValue is the value a nonbasic column currently sits at.
func (t *sparseTableau) nonbasicValue(j int) float64 {
	if t.atUpper[j] {
		return t.upper[j]
	}
	return t.lower[j]
}

// setPhase installs the phase costs (phase 1: Σ artificials; phase 2: the
// structural objective). Unlike the dense engine there is no objective row to
// eliminate — reduced costs are priced fresh each iteration.
func (t *sparseTableau) setPhase(phase1 bool, c []float64) {
	for j := range t.cost {
		t.cost[j] = 0
	}
	if phase1 {
		for _, ac := range t.artCols {
			t.cost[ac] = 1
		}
	} else {
		copy(t.cost, c)
	}
}

// infeasibility is the phase-1 objective at the current point: artificials
// are the only costed columns and sit at zero when nonbasic, so the sum runs
// over basic artificial values.
func (t *sparseTableau) infeasibility() float64 {
	s := 0.0
	for r, bj := range t.basis {
		if t.isArt[bj] {
			s += t.val[r]
		}
	}
	return s
}

// colInto scatters column j of the augmented matrix [A | logicals] into the
// zeroed dense vector x.
func (t *sparseTableau) colInto(j int, x []float64) {
	if j < t.nStruct {
		a := t.a
		for k := a.colp[j]; k < a.colp[j+1]; k++ {
			x[a.rows[k]] = a.vals[k]
		}
		return
	}
	x[t.lrow[j-t.nStruct]] = t.lsign[j-t.nStruct]
}

// colAddScaled adds d · column j into x (used to accumulate bound deltas and
// the effective right-hand side).
func (t *sparseTableau) colAddScaled(j int, d float64, x []float64) {
	if j < t.nStruct {
		a := t.a
		for k := a.colp[j]; k < a.colp[j+1]; k++ {
			x[a.rows[k]] += a.vals[k] * d
		}
		return
	}
	x[t.lrow[j-t.nStruct]] += t.lsign[j-t.nStruct] * d
}

// colDot is yᵀ·A_j over column j's nonzeros.
func (t *sparseTableau) colDot(j int, y []float64) float64 {
	if j < t.nStruct {
		a := t.a
		s := 0.0
		for k := a.colp[j]; k < a.colp[j+1]; k++ {
			s += y[a.rows[k]] * a.vals[k]
		}
		return s
	}
	return t.lsign[j-t.nStruct] * y[t.lrow[j-t.nStruct]]
}

// ftran applies the eta file in order: x ← B⁻¹x. Each eta replays the column
// operations of one dense pivot (divide the pivot row, then subtract the
// entering column's multiples), restricted to the stored nonzeros — skipped
// rows are exactly the rows a dense pivot leaves untouched.
func (t *sparseTableau) ftran(x []float64) {
	for k := range t.etas {
		e := &t.etas[k]
		xr := x[e.r] / e.pv
		x[e.r] = xr
		if xr == 0 {
			continue
		}
		for _, en := range e.ent {
			x[en.i] -= en.v * xr
		}
	}
}

// btran applies the transposed eta file in reverse order: x ← (B⁻¹)ᵀx.
func (t *sparseTableau) btran(x []float64) {
	for k := len(t.etas) - 1; k >= 0; k-- {
		e := &t.etas[k]
		s := x[e.r]
		for _, en := range e.ent {
			s -= en.v * x[en.i]
		}
		x[e.r] = s / e.pv
	}
}

// appendEta records the pivot (row r, FTRANed column w) as a new eta. The
// off-pivot nonzeros land in entArena; a mid-eta reallocation is fine because
// append copies the whole arena, so the final [start:len] window still holds
// every entry of this eta.
func (t *sparseTableau) appendEta(r int, w []float64) {
	start := len(t.entArena)
	for i := range w {
		if w[i] != 0 && i != r {
			t.entArena = append(t.entArena, etaEntry{i: int32(i), v: w[i]})
		}
	}
	var ent []etaEntry
	if nnz := len(t.entArena) - start; nnz > 0 {
		ent = t.entArena[start:len(t.entArena):len(t.entArena)]
		t.etaNNZ += nnz
	}
	t.etas = append(t.etas, etaElem{r: int32(r), pv: w[r], ent: ent})
}

// resetArena clears the eta-entry arena for a fresh factorization, abandoning
// the backing array when snapshot/restore headers still reference it.
func (t *sparseTableau) resetArena() {
	if t.arenaShared {
		t.entArena = nil
		t.arenaShared = false
		return
	}
	t.entArena = t.entArena[:0]
}

// iterate runs revised-simplex pivots until optimality, unboundedness, or the
// iteration cap — warmTableau.iterate with BTRAN pricing and FTRAN columns.
func (t *sparseTableau) iterate() Status {
	m := t.m()
	blandAfter := t.maxIters / 2
	for ; t.iters < t.maxIters; t.iters++ {
		// y = (B⁻¹)ᵀ c_B: one BTRAN of the basic costs.
		y := t.y
		anyCost := false
		for r := 0; r < m; r++ {
			c := t.cost[t.basis[r]]
			y[r] = c
			if c != 0 {
				anyCost = true
			}
		}
		if anyCost {
			t.btran(y)
		}

		enter, dir := -1, 1.0
		if t.iters < blandAfter {
			best := eps
			for j := 0; j < t.nTotal; j++ {
				if t.isArt[j] || t.inBasis[j] {
					continue
				}
				d := t.cost[j]
				if anyCost {
					d -= t.colDot(j, y)
				}
				if !t.atUpper[j] && -d > best {
					best, enter, dir = -d, j, 1
				} else if t.atUpper[j] && d > best {
					best, enter, dir = d, j, -1
				}
			}
		} else { // Bland
			for j := 0; j < t.nTotal; j++ {
				if t.isArt[j] || t.inBasis[j] {
					continue
				}
				d := t.cost[j]
				if anyCost {
					d -= t.colDot(j, y)
				}
				if !t.atUpper[j] && d < -eps {
					enter, dir = j, 1
					break
				}
				if t.atUpper[j] && d > eps {
					enter, dir = j, -1
					break
				}
			}
		}
		if enter == -1 {
			return Optimal
		}

		// w = B⁻¹A_enter: the entering column in the current basis.
		w := t.w
		for r := 0; r < m; r++ {
			w[r] = 0
		}
		t.colInto(enter, w)
		t.ftran(w)

		limit := t.upper[enter] - t.lower[enter]
		leave, leaveToUpper := -1, false
		for r := 0; r < m; r++ {
			a := dir * w[r]
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
			t.boundFlip(enter, dir, w)
			continue
		}
		if math.Abs(w[leave]) < driftPivTol && len(t.etas) > t.baseEtas {
			// Drift guard: a tiny pivot at the end of a long eta chain is more
			// likely accumulated rounding than a true near-singular step.
			// Refactorize and re-derive the whole iteration.
			if !t.refactorize() {
				return IterLimit
			}
			continue
		}
		t.moveAndPivot(enter, dir, limit, leave, leaveToUpper, w)
		if len(t.etas)-t.baseEtas >= t.updLimit || t.etaNNZ > t.nnzLimit {
			if !t.refactorize() {
				return IterLimit
			}
		}
	}
	return IterLimit
}

// boundFlip moves nonbasic variable j across its whole interval; w is the
// FTRANed column of j.
func (t *sparseTableau) boundFlip(j int, dir float64, w []float64) {
	dist := t.upper[j] - t.lower[j]
	for r := 0; r < t.m(); r++ {
		if w[r] != 0 {
			t.val[r] -= dir * dist * w[r]
		}
	}
	t.atUpper[j] = dir > 0
}

// moveAndPivot advances the entering variable by dist, retires the leaving
// basic variable at the bound it hit, and appends the pivot eta.
func (t *sparseTableau) moveAndPivot(enter int, dir, dist float64, leave int, leaveToUpper bool, w []float64) {
	for r := 0; r < t.m(); r++ {
		if w[r] != 0 {
			t.val[r] -= dir * dist * w[r]
		}
	}
	enterVal := t.lower[enter] + dist
	if dir < 0 {
		enterVal = t.upper[enter] - dist
	}
	leavingCol := t.basis[leave]
	t.inBasis[leavingCol] = false
	t.atUpper[leavingCol] = leaveToUpper
	t.atUpper[enter] = false
	t.basis[leave] = enter
	t.inBasis[enter] = true
	t.val[leave] = enterVal
	t.appendEta(leave, w)
}

// driveOutArtificials pivots zero-valued basic artificials out after phase 1.
// The tableau row needed to pick a pivot column is priced as ρ = (B⁻¹)ᵀe_r,
// then ρᵀA_j per candidate — the revised analogue of scanning the dense row.
// Nonbasic-at-upper columns are eligible (degenerate pivot entering from the
// upper bound), and artificial upper bounds are clamped to zero afterwards so
// a still-basic artificial on a redundant row can never leave zero in
// phase 2 — same discipline, and the same candidate scan order, as the dense
// engines, keeping the pivot sequences bitwise aligned.
func (t *sparseTableau) driveOutArtificials() {
	m := t.m()
	for r := 0; r < m; r++ {
		if !t.isArt[t.basis[r]] {
			continue
		}
		rho := t.y
		for i := 0; i < m; i++ {
			rho[i] = 0
		}
		rho[r] = 1
		t.btran(rho)
		for j := 0; j < t.nStruct+t.nSlack; j++ {
			if t.inBasis[j] {
				continue
			}
			if math.Abs(t.colDot(j, rho)) > 1e-7 {
				dir := 1.0
				if t.atUpper[j] {
					dir = -1
				}
				w := t.w
				for i := 0; i < m; i++ {
					w[i] = 0
				}
				t.colInto(j, w)
				t.ftran(w)
				t.moveAndPivot(j, dir, 0, r, false, w)
				break
			}
		}
	}
	for _, a := range t.artCols {
		t.upper[a] = 0
	}
}

// refactorize rebuilds the eta file for the current basis from the original
// columns: one eta per basis column, columns processed in ascending nnz order
// (logical columns first — each costs at most one trivial eta). The pivot row
// for each eta is chosen freely among the rows no earlier eta pivoted on —
// largest magnitude, lowest row index on ties — because the basis can be
// nonsingular while a fixed column→row pivot assignment hits an exact zero:
// a permutation block between two basic columns is the minimal example, and
// simplex pivot sequences do produce those. Columns whose best available
// pivot is numerically tiny are deferred to later elimination rounds; a round
// that defers everything retries once accepting any nonzero pivot before
// declaring the basis singular. The slot→row assignment is then re-derived
// from the pivots actually taken — the basis as a set is unchanged; which
// tableau row carries which basic variable is bookkeeping the factorization
// owns — and the basic values are refreshed from the fresh factorization,
// which is the drift correction. Returns false only when the basis is
// numerically singular.
func (t *sparseTableau) refactorize() bool {
	m := t.m()
	t.etas = t.etas[:0]
	t.etaNNZ = 0
	t.resetArena()
	t.refactors++

	order := t.perm[:0]
	for r := 0; r < m; r++ {
		order = append(order, r)
	}
	colNNZ := func(j int) int {
		if j < t.nStruct {
			return int(t.a.colp[j+1] - t.a.colp[j])
		}
		return 1
	}
	sort.SliceStable(order, func(x, y int) bool {
		nx, ny := colNNZ(t.basis[order[x]]), colNNZ(t.basis[order[y]])
		if nx != ny {
			return nx < ny
		}
		return order[x] < order[y]
	})

	newBasis := t.basis2[:m]
	rowFree := t.rowFree[:m]
	for r := 0; r < m; r++ {
		rowFree[r] = true
		newBasis[r] = -1
	}

	pending := order
	var deferred []int
	forced := false
	for len(pending) > 0 {
		progressed := false
		deferred = deferred[:0]
		for _, s := range pending {
			col := t.basis[s]
			w := t.w
			for i := 0; i < m; i++ {
				w[i] = 0
			}
			t.colInto(col, w)
			t.ftran(w)
			piv, best := -1, 0.0
			for r := 0; r < m; r++ {
				if !rowFree[r] {
					continue
				}
				if a := math.Abs(w[r]); a > best {
					piv, best = r, a
				}
			}
			if best < refactorPivTol && !(forced && piv >= 0) {
				deferred = append(deferred, s)
				continue
			}
			t.appendEta(piv, w)
			rowFree[piv] = false
			newBasis[piv] = col
			progressed = true
		}
		if !progressed {
			if forced {
				return false // no remaining column has a nonzero pivot anywhere: singular
			}
			forced = true
		} else {
			forced = false
		}
		pending = append(pending[:0], deferred...)
	}
	copy(t.basis, newBasis)
	t.baseEtas = len(t.etas)
	t.etaNNZ = 0
	t.recomputeVal()
	return true
}

// recomputeVal refreshes the basic values from the factorization:
// x_B = B⁻¹(b − Σ_{nonbasic j} A_j·x_j).
func (t *sparseTableau) recomputeVal() {
	m := t.m()
	b := t.rhsv
	for i := 0; i < m; i++ {
		b[i] = t.a.rhs[i]
	}
	for j := 0; j < t.nTotal; j++ {
		if t.inBasis[j] {
			continue
		}
		v := t.nonbasicValue(j)
		if v != 0 && !math.IsInf(v, 1) {
			t.colAddScaled(j, -v, b)
		}
	}
	t.ftran(b)
	copy(t.val, b)
}

// residualNorm is ‖row residuals‖∞ at the tableau's current point — every
// constraint row re-evaluated against the basic values and nonbasic bound
// positions using the original matrix (no factorization involved), i.e. the
// B·x_B = b̃ consistency check in row form. invariant.CheckWarmFactorization
// gates on it under -tags soclinvariants.
func (t *sparseTableau) residualNorm() float64 {
	m := t.m()
	res := t.rhsv
	for i := 0; i < m; i++ {
		res[i] = t.a.rhs[i]
	}
	for j := 0; j < t.nTotal; j++ {
		var v float64
		if t.inBasis[j] {
			continue
		}
		v = t.nonbasicValue(j)
		if v != 0 && !math.IsInf(v, 1) {
			t.colAddScaled(j, -v, res)
		}
	}
	for r, bj := range t.basis {
		if t.val[r] != 0 {
			t.colAddScaled(bj, -t.val[r], res)
		}
	}
	norm := 0.0
	for i := 0; i < m; i++ {
		if a := math.Abs(res[i]); a > norm {
			norm = a
		}
	}
	return norm
}

// copyFrom deep-copies src's state into t, reusing t's storage. The cscMatrix
// and eta entry slices are shared — both are immutable once built. src is
// only read (workers restore one shared snapshot concurrently); a live src
// must be told its arena is now referenced, which SnapshotTo does.
func (t *sparseTableau) copyFrom(src *sparseTableau) {
	t.a = src.a
	t.nStruct, t.nSlack = src.nStruct, src.nSlack
	t.numArtificial, t.nTotal = src.numArtificial, src.nTotal
	t.grow(src.nTotal, src.numArtificial)
	copy(t.val, src.val)
	copy(t.basis, src.basis)
	copy(t.lower, src.lower)
	copy(t.upper, src.upper)
	copy(t.cost, src.cost)
	copy(t.inBasis, src.inBasis)
	copy(t.atUpper, src.atUpper)
	copy(t.isArt, src.isArt)
	copy(t.lrow, src.lrow)
	copy(t.lsign, src.lsign)
	t.artCols = append(t.artCols[:0], src.artCols...)
	t.etas = append(t.etas[:0], src.etas...)
	t.baseEtas, t.etaNNZ = src.baseEtas, src.etaNNZ
	t.iters, t.maxIters = src.iters, src.maxIters
	t.updLimit, t.updLimitCfg = src.updLimit, src.updLimitCfg
	t.nnzLimit = src.nnzLimit
	t.refactors = src.refactors
}

// --- WarmSolver sparse path ---

// warmApplySparse moves the tableau to (lower, upper): nonbasic columns shift
// to their new bound values, with the basic-value correction applied as one
// FTRAN of the accumulated column deltas (the dense engine applies each
// column's delta separately; the batched form is the same linear map). It
// reports whether the basis is still primal feasible.
func (w *WarmSolver) warmApplySparse(lower, upper []float64) bool {
	t := &w.sp
	m := t.m()
	acc := t.rhsv
	for r := 0; r < m; r++ {
		acc[r] = 0
	}
	any := false
	for j := 0; j < t.nStruct; j++ {
		nl, nu := lower[j], upper[j]
		ol, ou := t.lower[j], t.upper[j]
		//socllint:ignore floateq bound values are copied verbatim between nodes; unchanged bounds compare bitwise equal
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
				any = true
				t.colAddScaled(j, d, acc)
			}
		}
		t.lower[j], t.upper[j] = nl, nu
	}
	if any {
		t.ftran(acc)
		for r := 0; r < m; r++ {
			if acc[r] != 0 {
				t.val[r] -= acc[r]
			}
		}
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

// dualResume runs bounded-variable dual simplex pivots after warmApplySparse
// moved the tableau to new bounds and found basic variables outside them —
// the branch-and-bound hot path, where every child node tightens the bound of
// a basic fractional variable and so always breaks primal feasibility. The
// previous Optimal solve left the basis dual feasible, and bound moves do not
// touch reduced costs, so each violated basic can be driven exactly to its
// bound by an entering column chosen with the dual ratio test (most-violated
// row, smallest ratio with first-wins ties). The entering column becomes
// basic at whatever value closes the violation, even one outside its own
// interval — a later pass then repairs it as a violated basic. (Flipping it
// across its interval without a pivot instead leaves it dual infeasible at
// the new bound and first in line to flip straight back; the 6×6 EShop
// regression of DESIGN.md §6 cycled that way until maxSteps.)
//
// Candidate pivots are priced from ρ = (B⁻¹)ᵀe_r (the revised analogue of
// reading dense row r) and the reduced costs from one BTRAN of the basic
// costs; the pivot distance, though, is taken from the FTRANed entering
// column, whose entries replay the dense reference's row arithmetic bit for
// bit. Returns Optimal when primal feasibility was restored (the caller then
// finishes with ordinary primal iterate, usually zero pivots), Infeasible
// when a violated row has no entering column at all — the dual ray that
// proves the bounds admit no point, so branch-and-bound's infeasible children
// cost a ratio test instead of a phase 1 — and IterLimit when it gave up
// (unstable pivot or too many steps) and the caller must cold-start.
func (t *sparseTableau) dualResume() Status {
	m := t.m()
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
		// y = (B⁻¹)ᵀc_B for reduced costs, ρ = (B⁻¹)ᵀe_r for the pivot row.
		y := t.y
		anyCost := false
		for i := 0; i < m; i++ {
			c := t.cost[t.basis[i]]
			y[i] = c
			if c != 0 {
				anyCost = true
			}
		}
		if anyCost {
			t.btran(y)
		}
		rho := t.rhsv
		for i := 0; i < m; i++ {
			rho[i] = 0
		}
		rho[r] = 1
		t.btran(rho)

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
			a := d * t.colDot(j, rho)
			if below {
				if a >= -eps { // need val[r] to increase
					continue
				}
			} else if a <= eps { // need val[r] to decrease
				continue
			}
			rc := t.cost[j]
			if anyCost {
				rc -= t.colDot(j, y)
			}
			rc *= d
			if rc < 0 {
				// Slightly dual-infeasible columns price as ratio zero; the
				// primal cleanup pass restores optimality afterwards.
				rc = 0
			}
			if ratio := rc / math.Abs(a); ratio < bestRatio {
				bestRatio, enter, dir = ratio, j, d
			}
		}
		if enter == -1 {
			// Row r reads x_B = β − Σ α_j·x_j with every movable nonbasic column
			// already at the bound that helps x_B most: no point inside the
			// bounds satisfies it.
			return Infeasible
		}

		// w = B⁻¹A_enter: the pivot distance and the eta both come from the
		// FTRANed column, matching the dense engine's arithmetic exactly.
		w := t.w
		for i := 0; i < m; i++ {
			w[i] = 0
		}
		t.colInto(enter, w)
		t.ftran(w)
		if math.Abs(w[r]) < driftPivTol && len(t.etas) > t.baseEtas {
			// Same drift guard as the primal loop: refactorize and re-derive
			// the whole step rather than pivot on accumulated rounding.
			if !t.refactorize() {
				return IterLimit
			}
			continue
		}
		a := dir * w[r]
		if below {
			if a >= -eps {
				return IterLimit // ρ-estimate and true pivot disagree on the sign
			}
		} else if a <= eps {
			return IterLimit
		}
		need := worst / math.Abs(a)
		t.moveAndPivot(enter, dir, need, r, !below, w)
		t.iters++
		if len(t.etas)-t.baseEtas >= t.updLimit || t.etaNNZ > t.nnzLimit {
			if !t.refactorize() {
				return IterLimit
			}
		}
	}
	return IterLimit
}

// coldSolveSparse rebuilds the tableau from scratch under the given bounds
// (two phases), reusing storage from previous solves.
func (w *WarmSolver) coldSolveSparse(lower, upper []float64) Solution {
	t := &w.sp
	t.build(w.base, lower, upper)
	if t.numArtificial > 0 {
		t.setPhase(true, nil)
		st := t.iterate()
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: t.iters}
		}
		if t.infeasibility() > warmFeasTol {
			return Solution{Status: Infeasible, Iters: t.iters}
		}
		t.driveOutArtificials()
	}
	t.setPhase(false, w.base.Objective)
	switch t.iterate() {
	case Unbounded:
		return Solution{Status: Unbounded, Iters: t.iters}
	case IterLimit:
		return Solution{Status: IterLimit, Iters: t.iters}
	}
	return w.extractSparse()
}

// extractSparse reads the structural solution off an Optimal tableau and
// marks the solver warm-ready; the objective is recomputed from x so warm
// chains cannot drift.
func (w *WarmSolver) extractSparse() Solution {
	t := &w.sp
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

// FactorizationResidual reports the ∞-norm of the constraint-row residuals at
// the solver's current basis point (B·x_B = b̃ rearranged into row form), and
// whether the solver holds a point to check. It is the factorization
// consistency probe behind invariant.CheckWarmFactorization.
func (w *WarmSolver) FactorizationResidual() (float64, bool) {
	if !w.ready {
		return 0, false
	}
	return w.sp.residualNorm(), true
}
