package lp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func solveBoundedOK(t *testing.T, p *BoundedProblem) Solution {
	t.Helper()
	s, err := SolveBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestBoundedSimpleBox(t *testing.T) {
	// min -x - 2y, 0 ≤ x ≤ 3, 0 ≤ y ≤ 2, x + y ≤ 4 → x=2 y=2 z=-6? Check:
	// y=2 (upper), x ≤ 2 → x=2 → z = -2-4 = -6.
	p := NewBoundedProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -2)
	p.SetBounds(0, 0, 3)
	p.SetBounds(1, 0, 2)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4)
	s := solveBoundedOK(t, p)
	if math.Abs(s.Objective-(-6)) > 1e-6 {
		t.Fatalf("objective = %v, want -6", s.Objective)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-2) > 1e-6 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestBoundedPureBoundFlip(t *testing.T) {
	// No binding rows: min -x with x ≤ 5 → pure bound flip to 5.
	p := NewBoundedProblem(1)
	p.SetObjective(0, -1)
	p.SetBounds(0, 0, 5)
	p.AddConstraint(map[int]float64{0: 1}, LE, 100)
	s := solveBoundedOK(t, p)
	if math.Abs(s.X[0]-5) > 1e-6 || math.Abs(s.Objective-(-5)) > 1e-6 {
		t.Fatalf("x = %v obj = %v", s.X, s.Objective)
	}
}

func TestBoundedNonzeroLower(t *testing.T) {
	// min x + y with x ≥ 2, y ∈ [1,3], x + y ≥ 5 → x=2? then y=3 → 5.
	// Or x=4,y=1 → 5. Objective value is 5 either way.
	p := NewBoundedProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetBounds(0, 2, math.Inf(1))
	p.SetBounds(1, 1, 3)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 5)
	s := solveBoundedOK(t, p)
	if math.Abs(s.Objective-5) > 1e-6 {
		t.Fatalf("objective = %v, want 5", s.Objective)
	}
	if s.X[0] < 2-1e-9 || s.X[1] < 1-1e-9 || s.X[1] > 3+1e-9 {
		t.Fatalf("bounds violated: %v", s.X)
	}
}

func TestBoundedInfeasible(t *testing.T) {
	// x ≤ 1 (bound) but row forces x ≥ 2.
	p := NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.SetBounds(0, 0, 1)
	p.AddConstraint(map[int]float64{0: 1}, GE, 2)
	s, err := SolveBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestBoundedUnbounded(t *testing.T) {
	p := NewBoundedProblem(1)
	p.SetObjective(0, -1) // min -x, x unbounded above
	p.AddConstraint(map[int]float64{0: 1}, GE, 0)
	s, err := SolveBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestBoundedValidate(t *testing.T) {
	p := NewBoundedProblem(1)
	p.SetBounds(0, 3, 1)
	if _, err := SolveBounded(p); err == nil {
		t.Fatal("empty bound interval accepted")
	}
	p2 := NewBoundedProblem(1)
	p2.Lower[0] = math.Inf(-1)
	if _, err := SolveBounded(p2); err == nil {
		t.Fatal("infinite lower bound accepted")
	}
}

func TestBoundedBinaryKnapsackRelaxation(t *testing.T) {
	// LP relaxation of the knapsack from the ILP tests: max 10a+13b+7c,
	// 3a+4b+2c ≤ 6, 0 ≤ vars ≤ 1. LP optimum: b=1, c=1, a=0 → 20;
	// actually fractional a=0: 4+2=6 full. Check against the same LP with the
	// [0,1] bounds written as rows over the default [0, +Inf) bounds.
	pb := NewBoundedProblem(3)
	pb.SetObjective(0, -10)
	pb.SetObjective(1, -13)
	pb.SetObjective(2, -7)
	for j := 0; j < 3; j++ {
		pb.SetBounds(j, 0, 1)
	}
	pb.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, LE, 6)
	sb := solveBoundedOK(t, pb)

	pr := NewBoundedProblem(3)
	pr.SetObjective(0, -10)
	pr.SetObjective(1, -13)
	pr.SetObjective(2, -7)
	pr.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, LE, 6)
	for j := 0; j < 3; j++ {
		pr.AddConstraint(map[int]float64{j: 1}, LE, 1)
	}
	sr := solveBoundedOK(t, pr)
	if math.Abs(sb.Objective-sr.Objective) > 1e-6 {
		t.Fatalf("bounded %v != row-based %v", sb.Objective, sr.Objective)
	}
}

// Differential property test: on random LPs with box bounds, SolveBounded on
// native bounds (bound flips, nonbasic-at-upper states) must agree with
// SolveBounded on the row-based encoding of the same bounds (slack rows over
// [0, +Inf)): status and objective.
func TestBoundedMatchesRowBasedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 2 + r.Intn(4)
		pb := NewBoundedProblem(n)
		pr := NewBoundedProblem(n)
		for j := 0; j < n; j++ {
			c := math.Round((r.Float64()*10-5)*4) / 4
			pb.SetObjective(j, c)
			pr.SetObjective(j, c)
			lo := math.Round(r.Float64()*2*4) / 4
			up := lo + math.Round((0.5+r.Float64()*4)*4)/4
			pb.SetBounds(j, lo, up)
			pr.AddConstraint(map[int]float64{j: 1}, GE, lo)
			pr.AddConstraint(map[int]float64{j: 1}, LE, up)
		}
		rows := 1 + r.Intn(3)
		for i := 0; i < rows; i++ {
			coeffs := map[int]float64{}
			for j := 0; j < n; j++ {
				coeffs[j] = math.Round((r.Float64()*4-2)*4) / 4
			}
			rel := []Rel{LE, GE, EQ}[r.Intn(3)]
			rhs := math.Round((r.Float64()*20-5)*4) / 4
			pb.AddConstraint(coeffs, rel, rhs)
			pr.AddConstraint(coeffs, rel, rhs)
		}
		sb, err1 := SolveBounded(pb)
		sr, err2 := SolveBounded(pr)
		if err1 != nil || err2 != nil {
			return false
		}
		if sb.Status != sr.Status {
			return false
		}
		if sb.Status != Optimal {
			return true
		}
		if math.Abs(sb.Objective-sr.Objective) > 1e-5 {
			return false
		}
		// The bounded solution must satisfy its own constraints and bounds.
		for j := 0; j < n; j++ {
			if sb.X[j] < pb.Lower[j]-1e-6 || sb.X[j] > pb.Upper[j]+1e-6 {
				return false
			}
		}
		for _, c := range pb.Constraints {
			lhs := 0.0
			for j, v := range c.Coeffs {
				lhs += v * sb.X[j]
			}
			switch c.Rel {
			case LE:
				if lhs > c.RHS+1e-6 {
					return false
				}
			case GE:
				if lhs < c.RHS-1e-6 {
					return false
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The bounded solver should use dramatically fewer rows than the row-based
// encoding on all-binary problems (smoke check: it solves a mid-size box LP
// in bounded iterations).
func TestBoundedScalesOnBinaryBoxes(t *testing.T) {
	n := 200
	p := NewBoundedProblem(n)
	r := stats.NewRand(3)
	coeffs := map[int]float64{}
	for j := 0; j < n; j++ {
		p.SetObjective(j, r.Float64()*10-5)
		p.SetBounds(j, 0, 1)
		coeffs[j] = 1 + r.Float64()
	}
	p.AddConstraint(coeffs, LE, float64(n)/4)
	s := solveBoundedOK(t, p)
	if s.Iters > 2000 {
		t.Fatalf("too many iterations: %d", s.Iters)
	}
}
