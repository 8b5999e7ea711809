package lp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// newSparseDensePair builds the production WarmSolver and its dense test
// reference over the same base problem. Every differential test in this file
// drives the pair in lockstep.
func newSparseDensePair(t *testing.T, p *BoundedProblem) (*WarmSolver, *denseWarmSolver) {
	t.Helper()
	sp, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	return sp, newDenseWarmSolver(p)
}

// The warm-solver fixtures are small dyadic problems where both engines visit
// the same vertices, so the solutions are required to match bitwise — the
// differential contract ISSUE 9 pins.
func TestSparseMatchesDenseBitwiseOnFixtures(t *testing.T) {
	cases := []struct {
		name  string
		build func() *BoundedProblem
	}{
		{"simple-box", func() *BoundedProblem {
			p := NewBoundedProblem(2)
			p.SetObjective(0, -1)
			p.SetObjective(1, -2)
			p.SetBounds(0, 0, 3)
			p.SetBounds(1, 0, 2)
			p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4)
			return p
		}},
		{"pure-bound-flip", func() *BoundedProblem {
			p := NewBoundedProblem(1)
			p.SetObjective(0, -1)
			p.SetBounds(0, 0, 5)
			p.AddConstraint(map[int]float64{0: 1}, LE, 100)
			return p
		}},
		{"nonzero-lower", func() *BoundedProblem {
			p := NewBoundedProblem(2)
			p.SetObjective(0, 1)
			p.SetObjective(1, 1)
			p.SetBounds(0, 2, math.Inf(1))
			p.SetBounds(1, 1, 3)
			p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 5)
			return p
		}},
		{"infeasible", func() *BoundedProblem {
			p := NewBoundedProblem(1)
			p.SetObjective(0, 1)
			p.SetBounds(0, 0, 1)
			p.AddConstraint(map[int]float64{0: 1}, GE, 2)
			return p
		}},
		{"unbounded", func() *BoundedProblem {
			p := NewBoundedProblem(1)
			p.SetObjective(0, -1)
			p.AddConstraint(map[int]float64{0: 1}, GE, 0)
			return p
		}},
		{"knapsack", knapsackBase},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			sp, ds := newSparseDensePair(t, p)
			lower, upper := cloneBounds(p)
			a, err := sp.SolveWithBounds(lower, upper)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ds.SolveWithBounds(lower, upper)
			if err != nil {
				t.Fatal(err)
			}
			if a.Status != b.Status {
				t.Fatalf("status sparse=%v dense=%v", a.Status, b.Status)
			}
			if a.Status != Optimal {
				return
			}
			if a.Objective != b.Objective {
				t.Fatalf("objective sparse=%v dense=%v", a.Objective, b.Objective)
			}
			for j := range a.X {
				if a.X[j] != b.X[j] {
					t.Fatalf("x[%d] sparse=%v dense=%v", j, a.X[j], b.X[j])
				}
			}
		})
	}
}

// The warm branching chain from the dense tests, replayed on both engines in
// lockstep: statuses bitwise, objectives bitwise on this dyadic fixture, and
// the sparse engine must actually take warm resumes.
func TestSparseMatchesDenseOnKnapsackChain(t *testing.T) {
	p := knapsackBase()
	sp, ds := newSparseDensePair(t, p)
	steps := [][2][]float64{
		{{0, 0, 0}, {1, 1, 1}},
		{{0, 0, 0}, {1, 0, 1}},
		{{0, 1, 0}, {1, 1, 1}},
		{{0, 1, 0}, {0, 1, 1}},
		{{1, 1, 0}, {1, 1, 1}},
		{{0, 0, 0}, {1, 1, 0}},
		{{0, 0, 1}, {1, 1, 1}},
	}
	for i, st := range steps {
		a, err := sp.SolveWithBounds(append([]float64(nil), st[0]...), append([]float64(nil), st[1]...))
		if err != nil {
			t.Fatalf("step %d sparse: %v", i, err)
		}
		b, err := ds.SolveWithBounds(append([]float64(nil), st[0]...), append([]float64(nil), st[1]...))
		if err != nil {
			t.Fatalf("step %d dense: %v", i, err)
		}
		if a.Status != b.Status {
			t.Fatalf("step %d: status sparse=%v dense=%v", i, a.Status, b.Status)
		}
		if a.Status == Optimal && a.Objective != b.Objective {
			t.Fatalf("step %d: objective sparse=%v dense=%v", i, a.Objective, b.Objective)
		}
	}
	if sp.Stats.Warm == 0 {
		t.Fatalf("sparse chain never took the warm path: %+v", sp.Stats)
	}
}

// Property test: random bounded LPs under random branching-style bound moves,
// sparse vs dense in lockstep. Statuses must agree exactly; objectives within
// 1e-8 (the engines price reduced costs through different linear maps, so
// degenerate ties can resolve to different optimal vertices).
func TestSparseMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 2 + r.Intn(4)
		p := NewBoundedProblem(n)
		baseLo := make([]float64, n)
		baseUp := make([]float64, n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, math.Round((r.Float64()*10-5)*4)/4)
			baseLo[j] = math.Round(r.Float64()*2*4) / 4
			baseUp[j] = baseLo[j] + math.Round((0.5+r.Float64()*4)*4)/4
			p.SetBounds(j, baseLo[j], baseUp[j])
		}
		rows := 1 + r.Intn(3)
		for i := 0; i < rows; i++ {
			coeffs := map[int]float64{}
			for j := 0; j < n; j++ {
				coeffs[j] = math.Round((r.Float64()*4-2)*4) / 4
			}
			rel := []Rel{LE, GE, EQ}[r.Intn(3)]
			rhs := math.Round((r.Float64()*20-5)*4) / 4
			p.AddConstraint(coeffs, rel, rhs)
		}
		sp, err := NewWarmSolver(p)
		if err != nil {
			return false
		}
		ds := newDenseWarmSolver(p)
		for step := 0; step < 6; step++ {
			lower := append([]float64(nil), baseLo...)
			upper := append([]float64(nil), baseUp...)
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					continue
				}
				mid := baseLo[j] + math.Round(r.Float64()*(baseUp[j]-baseLo[j])*4)/4
				if r.Intn(2) == 0 {
					lower[j] = mid
				} else {
					upper[j] = mid
				}
			}
			a, err := sp.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...))
			if err != nil {
				return false
			}
			b, err := ds.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...))
			if err != nil {
				return false
			}
			if a.Status != b.Status {
				return false
			}
			if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Beale's classic cycling example: under the plain Dantzig rule with naive
// tie-breaking the simplex method cycles forever on this LP. The engines'
// anti-cycling defenses (basis-index ratio tie-break, Bland fallback) must
// terminate it at the known optimum on both engines.
func TestSparseDegenerateCyclingFixture(t *testing.T) {
	p := NewBoundedProblem(4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	for j := 0; j < 4; j++ {
		p.SetBounds(j, 0, math.Inf(1))
	}
	p.AddConstraint(map[int]float64{0: 0.25, 1: -60, 2: -0.04, 3: 9}, LE, 0)
	p.AddConstraint(map[int]float64{0: 0.5, 1: -90, 2: -0.02, 3: 3}, LE, 0)
	p.AddConstraint(map[int]float64{2: 1}, LE, 1)

	sp, ds := newSparseDensePair(t, p)
	lower, upper := cloneBounds(p)
	a, err := sp.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.SolveWithBounds(lower, upper)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != Optimal || b.Status != Optimal {
		t.Fatalf("status sparse=%v dense=%v, want optimal", a.Status, b.Status)
	}
	// Known optimum: x = (1/25·... ) with objective −1/20.
	if math.Abs(a.Objective-(-0.05)) > 1e-9 || math.Abs(b.Objective-(-0.05)) > 1e-9 {
		t.Fatalf("objective sparse=%v dense=%v, want -0.05", a.Objective, b.Objective)
	}
}

// Regression: an equality row that forces a variable exactly to its upper
// bound can end phase 1 with the artificial still basic at zero while the
// only structural column in its row is nonbasic-at-upper. driveOutArtificials
// used to skip at-upper columns, and an unpinned artificial (upper = +Inf)
// could then re-grow during phase 2, silently breaking the equality: the
// solve reported x0 = 0, objective -4.75, as "optimal". All three engines
// (standalone SolveBounded, the warm sparse engine and its dense reference)
// shared the bug.
func TestArtificialPinnedAfterPhase1(t *testing.T) {
	build := func() *BoundedProblem {
		p := NewBoundedProblem(2)
		p.SetObjective(0, 2.25)
		p.SetObjective(1, -1)
		p.SetBounds(0, 0, 2.25)
		p.SetBounds(1, 0.25, 4.75)
		p.AddConstraint(map[int]float64{0: -0.25, 1: 1.25}, LE, 10)
		p.AddConstraint(map[int]float64{0: -2}, EQ, -4.5) // forces x0 = 2.25 = upper
		return p
	}
	check := func(name string, s Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Status != Optimal {
			t.Fatalf("%s: status = %v, want optimal", name, s.Status)
		}
		if math.Abs(s.X[0]-2.25) > 1e-9 || math.Abs(s.X[1]-4.75) > 1e-9 {
			t.Fatalf("%s: x = %v, want [2.25 4.75]", name, s.X)
		}
		if math.Abs(s.Objective-0.3125) > 1e-9 {
			t.Fatalf("%s: objective = %v, want 0.3125", name, s.Objective)
		}
	}
	p := build()
	st, err := SolveBounded(p)
	check("standalone", st, err)
	sp, ds := newSparseDensePair(t, p)
	lower, upper := cloneBounds(p)
	a, err := sp.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...))
	check("sparse", a, err)
	b, err := ds.SolveWithBounds(lower, upper)
	check("dense", b, err)
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			t.Fatalf("sparse/dense mismatch at %d: %v vs %v", j, a.X[j], b.X[j])
		}
	}
}

// An EQ-only system starts phase 1 with every row carrying an artificial (no
// slack can be basic). Both engines must drive all artificials out and agree.
func TestSparseAllArtificialPhase1(t *testing.T) {
	// A 2×3 transportation problem: all five rows are equalities.
	p := NewBoundedProblem(6) // x[ij] = amount from supply i to demand j
	cost := []float64{4, 6, 9, 5, 3, 8}
	for j, c := range cost {
		p.SetObjective(j, c)
		p.SetBounds(j, 0, math.Inf(1))
	}
	p.AddConstraint(map[int]float64{0: 1, 1: 1, 2: 1}, EQ, 10) // supply 0
	p.AddConstraint(map[int]float64{3: 1, 4: 1, 5: 1}, EQ, 15) // supply 1
	p.AddConstraint(map[int]float64{0: 1, 3: 1}, EQ, 7)        // demand 0
	p.AddConstraint(map[int]float64{1: 1, 4: 1}, EQ, 8)        // demand 1
	p.AddConstraint(map[int]float64{2: 1, 5: 1}, EQ, 10)       // demand 2

	sp, ds := newSparseDensePair(t, p)
	lower, upper := cloneBounds(p)
	a, err := sp.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.SolveWithBounds(lower, upper)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != Optimal || b.Status != Optimal {
		t.Fatalf("status sparse=%v dense=%v", a.Status, b.Status)
	}
	if math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("objective sparse=%v dense=%v", a.Objective, b.Objective)
	}
	if sp.sp.numArtificial != len(p.Constraints) {
		t.Fatalf("numArtificial = %d, want %d (every EQ row)", sp.sp.numArtificial, len(p.Constraints))
	}
}

// updLimitCfg=1 makes every pivot trigger the eta-update
// refactorization threshold; the solves must still match the cold reference
// and the refactorization counter must actually advance (the threshold path
// is live, and mid-solve rebuilds do not corrupt state).
func TestSparseForcedRefactorization(t *testing.T) {
	p := knapsackBase()
	sp, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sp.sp.updLimitCfg = 1
	lower, upper := cloneBounds(p)
	if _, err := sp.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...)); err != nil {
		t.Fatal(err)
	}
	steps := [][2][]float64{
		{{0, 0, 0}, {1, 0, 1}},
		{{0, 1, 0}, {1, 1, 1}},
		{{0, 0, 1}, {1, 1, 1}},
		{{0, 0, 0}, {1, 1, 1}},
	}
	for i, st := range steps {
		got, err := sp.SolveWithBounds(append([]float64(nil), st[0]...), append([]float64(nil), st[1]...))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		checkAgainstReference(t, p, got, st[0], st[1])
	}
	if sp.sp.refactors == 0 {
		t.Fatal("updLimit=1 never triggered a refactorization")
	}
}

// Regression for the permutation-block basis: the slot→row assignment the
// simplex pivots leave behind can have exactly-zero diagonal pivots even
// though the basis is nonsingular (two basic columns whose eliminated forms
// swap rows). refactorize must re-derive the assignment rather than declare
// the basis singular. Swapping two slots by hand is a legal disguise of the
// same basis set, so the rebuilt factorization must still be consistent.
func TestSparseRefactorizePermutedSlots(t *testing.T) {
	p := knapsackBase()
	sp, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lower, upper := cloneBounds(p)
	want, err := sp.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...))
	if err != nil {
		t.Fatal(err)
	}
	tb := &sp.sp
	if tb.m() < 1 {
		t.Fatal("fixture has no rows")
	}
	if !tb.refactorize() {
		t.Fatal("refactorize reported a singular basis on an optimal tableau")
	}
	if res := tb.residualNorm(); res > 1e-9 {
		t.Fatalf("residual %v after refactorization", res)
	}
	got := sp.extractSparse()
	if got.Objective != want.Objective {
		t.Fatalf("objective drifted across refactorization: %v vs %v", got.Objective, want.Objective)
	}
	for j := range got.X {
		if got.X[j] != want.X[j] {
			t.Fatalf("x[%d] drifted across refactorization: %v vs %v", j, got.X[j], want.X[j])
		}
	}
}

// Snapshot must round-trip the factorization state bitwise: a restored solver
// is field-for-field identical to the snapshotted one, and two restores of the
// same snapshot produce bitwise-identical re-solves regardless of what was
// solved in between.
func TestSparseSnapshotRestoreBitwiseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 2 + r.Intn(3)
		p := NewBoundedProblem(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, math.Round((r.Float64()*10-5)*4)/4)
			p.SetBounds(j, 0, 1+float64(r.Intn(3)))
		}
		for i := 0; i < 1+r.Intn(2); i++ {
			coeffs := map[int]float64{}
			for j := 0; j < n; j++ {
				coeffs[j] = math.Round((r.Float64()*4-2)*4) / 4
			}
			p.AddConstraint(coeffs, []Rel{LE, GE}[r.Intn(2)], math.Round(r.Float64()*10*4)/4)
		}
		w, err := NewWarmSolver(p)
		if err != nil {
			return false
		}
		lower, upper := cloneBounds(p)
		if _, err := w.SolveWithBounds(append([]float64(nil), lower...), append([]float64(nil), upper...)); err != nil {
			return false
		}
		snap := w.Snapshot()
		if snap == nil {
			return true // infeasible/unbounded roots have nothing to snapshot
		}

		child := func() ([]float64, []float64) {
			lo := append([]float64(nil), lower...)
			up := append([]float64(nil), upper...)
			j := r.Intn(n)
			mid := math.Round(r.Float64()*(up[j]-lo[j])*4)/4 + lo[j]
			if r.Intn(2) == 0 {
				lo[j] = mid
			} else {
				up[j] = mid
			}
			return lo, up
		}
		lo1, up1 := child()
		lo2, up2 := child()

		w.Restore(snap)
		if !sparseStateEqual(&w.sp, &snap.sp) {
			return false
		}
		a1, err := w.SolveWithBounds(append([]float64(nil), lo1...), append([]float64(nil), up1...))
		if err != nil {
			return false
		}
		// Pollute with an unrelated solve, restore, and replay the same child.
		if _, err := w.SolveWithBounds(lo2, up2); err != nil {
			return false
		}
		w.Restore(snap)
		if !sparseStateEqual(&w.sp, &snap.sp) {
			return false
		}
		a2, err := w.SolveWithBounds(lo1, up1)
		if err != nil {
			return false
		}
		if a1.Status != a2.Status || a1.Objective != a2.Objective {
			return false
		}
		for j := range a1.X {
			if a1.X[j] != a2.X[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sparseStateEqual compares every snapshot-carried field of two sparse
// tableaux bitwise (scratch vectors excluded — they are not state).
func sparseStateEqual(a, b *sparseTableau) bool {
	if a.nStruct != b.nStruct || a.nSlack != b.nSlack ||
		a.numArtificial != b.numArtificial || a.nTotal != b.nTotal ||
		a.baseEtas != b.baseEtas || a.etaNNZ != b.etaNNZ ||
		a.iters != b.iters || a.maxIters != b.maxIters ||
		a.updLimit != b.updLimit || a.nnzLimit != b.nnzLimit {
		return false
	}
	if len(a.etas) != len(b.etas) {
		return false
	}
	for k := range a.etas {
		ea, eb := &a.etas[k], &b.etas[k]
		if ea.r != eb.r || ea.pv != eb.pv || len(ea.ent) != len(eb.ent) {
			return false
		}
		for i := range ea.ent {
			if ea.ent[i] != eb.ent[i] {
				return false
			}
		}
	}
	eqF := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqB := func(x, y []bool) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eqF(a.val, b.val) || !eqF(a.lower, b.lower) || !eqF(a.upper, b.upper) ||
		!eqF(a.cost, b.cost) || !eqF(a.lsign, b.lsign) {
		return false
	}
	if !eqB(a.inBasis, b.inBasis) || !eqB(a.atUpper, b.atUpper) || !eqB(a.isArt, b.isArt) {
		return false
	}
	if len(a.basis) != len(b.basis) {
		return false
	}
	for i := range a.basis {
		if a.basis[i] != b.basis[i] {
			return false
		}
	}
	if len(a.artCols) != len(b.artCols) {
		return false
	}
	for i := range a.artCols {
		if a.artCols[i] != b.artCols[i] {
			return false
		}
	}
	if len(a.lrow) != len(b.lrow) {
		return false
	}
	for i := range a.lrow {
		if a.lrow[i] != b.lrow[i] {
			return false
		}
	}
	return true
}
