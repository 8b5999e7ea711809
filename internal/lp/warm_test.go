package lp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// reference solves p with the from-scratch bounded solver after substituting
// the given bounds — the cold reference every warm solve is pinned against.
func reference(t *testing.T, p *BoundedProblem, lower, upper []float64) Solution {
	t.Helper()
	q := &BoundedProblem{
		NumVars:     p.NumVars,
		Objective:   p.Objective,
		Constraints: p.Constraints,
		Lower:       lower,
		Upper:       upper,
	}
	s, err := SolveBounded(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkAgainstReference(t *testing.T, p *BoundedProblem, got Solution, lower, upper []float64) {
	t.Helper()
	want := reference(t, p, lower, upper)
	if got.Status != want.Status {
		t.Fatalf("status = %v, reference = %v (lower=%v upper=%v)", got.Status, want.Status, lower, upper)
	}
	if got.Status != Optimal {
		return
	}
	if math.Abs(got.Objective-want.Objective) > 1e-6 {
		t.Fatalf("objective = %v, reference = %v", got.Objective, want.Objective)
	}
	for j := range got.X {
		if got.X[j] < lower[j]-1e-6 || got.X[j] > upper[j]+1e-6 {
			t.Fatalf("x[%d] = %v outside [%v, %v]", j, got.X[j], lower[j], upper[j])
		}
	}
	for _, c := range p.Constraints {
		lhs := 0.0
		for j, v := range c.Coeffs {
			lhs += v * got.X[j]
		}
		switch c.Rel {
		case LE:
			if lhs > c.RHS+1e-6 {
				t.Fatalf("row violated: %v > %v", lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-1e-6 {
				t.Fatalf("row violated: %v < %v", lhs, c.RHS)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > 1e-6 {
				t.Fatalf("row violated: %v != %v", lhs, c.RHS)
			}
		}
	}
}

// knapsackBase is the binary-knapsack relaxation used across the warm tests:
// branching on its variables exercises exactly the bound changes
// branch-and-bound produces.
func knapsackBase() *BoundedProblem {
	p := NewBoundedProblem(3)
	p.SetObjective(0, -10)
	p.SetObjective(1, -13)
	p.SetObjective(2, -7)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 1)
	}
	p.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, LE, 6)
	return p
}

func cloneBounds(p *BoundedProblem) (lower, upper []float64) {
	return append([]float64(nil), p.Lower...), append([]float64(nil), p.Upper...)
}

// Cold path (first solve) must match SolveBounded on the standard fixtures.
func TestWarmColdMatchesBoundedFixtures(t *testing.T) {
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
			w, err := NewWarmSolver(p)
			if err != nil {
				t.Fatal(err)
			}
			lower, upper := cloneBounds(p)
			got, err := w.SolveWithBounds(lower, upper)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, p, got, lower, upper)
		})
	}
}

// A branch-and-bound-like chain of bound tightenings: every warm re-solve
// must match a from-scratch solve, and at least one solve must actually take
// the warm path (otherwise this test pins nothing).
func TestWarmChainMatchesColdOnKnapsackBranching(t *testing.T) {
	p := knapsackBase()
	w, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	steps := [][2][]float64{
		{{0, 0, 0}, {1, 1, 1}}, // root
		{{0, 0, 0}, {1, 0, 1}}, // x1 = 0
		{{0, 1, 0}, {1, 1, 1}}, // x1 = 1
		{{0, 1, 0}, {0, 1, 1}}, // x1 = 1, x0 = 0
		{{1, 1, 0}, {1, 1, 1}}, // x1 = 1, x0 = 1 (budget-infeasible branch)
		{{0, 0, 0}, {1, 1, 0}}, // x2 = 0
		{{0, 0, 1}, {1, 1, 1}}, // x2 = 1
	}
	for i, st := range steps {
		got, err := w.SolveWithBounds(st[0], st[1])
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		checkAgainstReference(t, p, got, st[0], st[1])
	}
	if w.Stats.Warm == 0 {
		t.Fatalf("no warm solves in the chain: stats %+v", w.Stats)
	}
}

// Snapshot/Restore must reproduce the snapshotted start state: restoring the
// root snapshot before each child gives the same answers as fresh cold
// solves, independent of what was solved in between.
func TestWarmSnapshotRestoreDeterministic(t *testing.T) {
	p := knapsackBase()
	w, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lower, upper := cloneBounds(p)
	if _, err := w.SolveWithBounds(lower, upper); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if snap == nil {
		t.Fatal("nil snapshot after optimal solve")
	}
	children := [][2][]float64{
		{{0, 0, 0}, {1, 0, 1}},
		{{0, 1, 0}, {1, 1, 1}},
		{{0, 0, 1}, {1, 1, 1}},
	}
	first := make([]Solution, len(children))
	for i, st := range children {
		w.Restore(snap)
		got, err := w.SolveWithBounds(st[0], st[1])
		if err != nil {
			t.Fatal(err)
		}
		first[i] = got
		checkAgainstReference(t, p, got, st[0], st[1])
	}
	// Second pass in reverse order: snapshot restarts make the results
	// independent of solve history.
	for i := len(children) - 1; i >= 0; i-- {
		st := children[i]
		w.Restore(snap)
		got, err := w.SolveWithBounds(st[0], st[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != first[i].Status || math.Abs(got.Objective-first[i].Objective) > 1e-12 {
			t.Fatalf("child %d: history-dependent result: %v/%v vs %v/%v",
				i, got.Status, got.Objective, first[i].Status, first[i].Objective)
		}
	}
}

// An infeasible child must be reported infeasible from the warm path too,
// and the solver must recover (cold-restart) on the next solve.
func TestWarmInfeasibleChildAndRecovery(t *testing.T) {
	p := knapsackBase()
	w, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lower, upper := cloneBounds(p)
	if _, err := w.SolveWithBounds(lower, upper); err != nil {
		t.Fatal(err)
	}
	// All three at 1 violates 3+4+2 ≤ 6.
	got, err := w.SolveWithBounds([]float64{1, 1, 1}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", got.Status)
	}
	lower2, upper2 := cloneBounds(p)
	got2, err := w.SolveWithBounds(lower2, upper2)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, p, got2, lower2, upper2)
}

func TestWarmValidatesBounds(t *testing.T) {
	p := knapsackBase()
	w, err := NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.SolveWithBounds([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("short bound slices accepted")
	}
	if _, err := w.SolveWithBounds([]float64{2, 0, 0}, []float64{1, 1, 1}); err == nil {
		t.Fatal("empty bound interval accepted")
	}
	if _, err := w.SolveWithBounds([]float64{math.Inf(-1), 0, 0}, []float64{1, 1, 1}); err == nil {
		t.Fatal("infinite lower bound accepted")
	}
}

// Property test: on random bounded LPs, random sequences of bound
// tightenings/relaxations solved warm must agree with from-scratch solves at
// every step.
func TestWarmMatchesColdProperty(t *testing.T) {
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
		w, err := NewWarmSolver(p)
		if err != nil {
			return false
		}
		for step := 0; step < 6; step++ {
			lower := append([]float64(nil), baseLo...)
			upper := append([]float64(nil), baseUp...)
			// Tighten a random subset of variables toward a random point in
			// their interval — the move set branch-and-bound generates.
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
			got, err := w.SolveWithBounds(lower, upper)
			if err != nil {
				return false
			}
			ref := &BoundedProblem{NumVars: n, Objective: p.Objective, Constraints: p.Constraints, Lower: lower, Upper: upper}
			want, err := SolveBounded(ref)
			if err != nil {
				return false
			}
			if got.Status != want.Status {
				return false
			}
			if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
