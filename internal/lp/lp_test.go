package lp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// The fixtures in this file put every restriction in rows over the default
// [0, +Inf) bounds, so they exercise SolveBounded with no bound-flip or
// at-upper state at all.
func solveOK(t *testing.T, p *BoundedProblem) Solution {
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

func TestSimpleMax(t *testing.T) {
	// max 3x+2y s.t. x+y<=4, x+3y<=6 → min -3x-2y; optimum x=4,y=0, z=-12.
	p := NewBoundedProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -2)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4)
	p.AddConstraint(map[int]float64{0: 1, 1: 3}, LE, 6)
	s := solveOK(t, p)
	if math.Abs(s.Objective-(-12)) > 1e-6 {
		t.Fatalf("objective = %v, want -12", s.Objective)
	}
	if math.Abs(s.X[0]-4) > 1e-6 || math.Abs(s.X[1]) > 1e-6 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x+y s.t. x+y = 10, x >= 3, y >= 2 → objective 10.
	p := NewBoundedProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 10)
	p.AddConstraint(map[int]float64{0: 1}, GE, 3)
	p.AddConstraint(map[int]float64{1: 1}, GE, 2)
	s := solveOK(t, p)
	if math.Abs(s.Objective-10) > 1e-6 {
		t.Fatalf("objective = %v, want 10", s.Objective)
	}
	if s.X[0] < 3-1e-6 || s.X[1] < 2-1e-6 {
		t.Fatalf("x = %v violates bounds", s.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, LE, 1)
	p.AddConstraint(map[int]float64{0: 1}, GE, 2)
	s, err := SolveBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with only x >= 0 (implicit): unbounded below.
	p := NewBoundedProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint(map[int]float64{0: 1}, GE, 0)
	s, err := SolveBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -5 means x >= 5; min x → 5.
	p := NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: -1}, LE, -5)
	s := solveOK(t, p)
	if math.Abs(s.Objective-5) > 1e-6 {
		t.Fatalf("objective = %v, want 5", s.Objective)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate vertex; must not cycle.
	p := NewBoundedProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint(map[int]float64{0: 1}, LE, 1)
	p.AddConstraint(map[int]float64{1: 1}, LE, 1)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 2) // redundant at optimum
	s := solveOK(t, p)
	if math.Abs(s.Objective-(-2)) > 1e-6 {
		t.Fatalf("objective = %v, want -2", s.Objective)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows → redundant artificial; must still solve.
	p := NewBoundedProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 2)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 4)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 4)
	s := solveOK(t, p)
	if math.Abs(s.Objective-4) > 1e-6 { // x=4, y=0
		t.Fatalf("objective = %v, want 4", s.Objective)
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewBoundedProblem(0)
	if _, err := SolveBounded(p); err == nil {
		t.Fatal("no-variable problem accepted")
	}
	p2 := NewBoundedProblem(1)
	p2.AddConstraint(map[int]float64{5: 1}, LE, 1)
	if _, err := SolveBounded(p2); err == nil {
		t.Fatal("out-of-range variable accepted")
	}
	p3 := NewBoundedProblem(1)
	p3.AddConstraint(map[int]float64{0: 1}, LE, math.NaN())
	if _, err := SolveBounded(p3); err == nil {
		t.Fatal("NaN RHS accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewBoundedProblem(2)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, LE, 3)
	q := p.Clone()
	q.Objective[0] = 9
	q.Constraints[0].Coeffs[0] = 7
	q.Upper[0] = 2
	if p.Objective[0] != 1 || p.Constraints[0].Coeffs[0] != 1 || !math.IsInf(p.Upper[0], 1) {
		t.Fatal("Clone aliases storage")
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 supplies (10, 20), 2 demands (15, 15), costs [[1,2],[3,1]].
	// Optimal: x00=10, x10=5, x11=15 → 10+15+15 = 40.
	p := NewBoundedProblem(4) // x00 x01 x10 x11
	costs := []float64{1, 2, 3, 1}
	for j, c := range costs {
		p.SetObjective(j, c)
	}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 10)
	p.AddConstraint(map[int]float64{2: 1, 3: 1}, EQ, 20)
	p.AddConstraint(map[int]float64{0: 1, 2: 1}, EQ, 15)
	p.AddConstraint(map[int]float64{1: 1, 3: 1}, EQ, 15)
	s := solveOK(t, p)
	if math.Abs(s.Objective-40) > 1e-6 {
		t.Fatalf("objective = %v, want 40", s.Objective)
	}
}

// referenceEnumerate solves a small LP with all-LE rows by enumerating basic
// feasible solutions via vertex enumeration over constraint pairs in 2D.
func vertex2D(a1, b1, c1, a2, b2, c2 float64) (float64, float64, bool) {
	det := a1*b2 - a2*b1
	if math.Abs(det) < 1e-12 {
		return 0, 0, false
	}
	return (c1*b2 - c2*b1) / det, (a1*c2 - a2*c1) / det, true
}

// Property: on random feasible bounded 2-variable LPs, the simplex optimum
// matches brute-force vertex enumeration.
func TestSimplexMatchesVertexEnumeration2D(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		// min c·x over x,y>=0 with 3 random "≤" constraints with positive
		// coefficients (guarantees bounded feasible region containing 0).
		type row struct{ a, b, c float64 }
		rows := make([]row, 3)
		for i := range rows {
			rows[i] = row{1 + r.Float64()*4, 1 + r.Float64()*4, 1 + r.Float64()*9}
		}
		cx, cy := -1-r.Float64()*4, -1-r.Float64()*4 // maximize positive combo

		p := NewBoundedProblem(2)
		p.SetObjective(0, cx)
		p.SetObjective(1, cy)
		for _, rw := range rows {
			p.AddConstraint(map[int]float64{0: rw.a, 1: rw.b}, LE, rw.c)
		}
		s, err := SolveBounded(p)
		if err != nil || s.Status != Optimal {
			return false
		}

		// Enumerate candidate vertices: axis intercepts and pairwise
		// intersections, keep feasible ones, take the best.
		cands := [][2]float64{{0, 0}}
		for _, rw := range rows {
			cands = append(cands, [2]float64{rw.c / rw.a, 0}, [2]float64{0, rw.c / rw.b})
		}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if x, y, ok := vertex2D(rows[i].a, rows[i].b, rows[i].c, rows[j].a, rows[j].b, rows[j].c); ok {
					cands = append(cands, [2]float64{x, y})
				}
			}
		}
		best := math.Inf(1)
		for _, v := range cands {
			x, y := v[0], v[1]
			if x < -1e-9 || y < -1e-9 {
				continue
			}
			ok := true
			for _, rw := range rows {
				if rw.a*x+rw.b*y > rw.c+1e-9 {
					ok = false
					break
				}
			}
			if ok {
				if z := cx*x + cy*y; z < best {
					best = z
				}
			}
		}
		return math.Abs(s.Objective-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reported optimum is ≤ the objective at any random feasible
// point (optimality certificate on sampled points).
func TestOptimumDominatesFeasiblePoints(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 3 + r.Intn(3)
		p := NewBoundedProblem(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, r.Float64()*10-5)
		}
		// Box constraints keep it bounded: x_j <= u_j.
		ub := make([]float64, n)
		for j := 0; j < n; j++ {
			ub[j] = 1 + r.Float64()*9
			p.AddConstraint(map[int]float64{j: 1}, LE, ub[j])
		}
		// A couple of random coupling rows with positive coefficients.
		for i := 0; i < 2; i++ {
			coeffs := map[int]float64{}
			for j := 0; j < n; j++ {
				coeffs[j] = r.Float64() * 2
			}
			p.AddConstraint(coeffs, LE, 5+r.Float64()*20)
		}
		s, err := SolveBounded(p)
		if err != nil || s.Status != Optimal {
			return false
		}
		// Sample feasible points by scaling random points into the box and
		// rejecting violations.
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = r.Float64() * ub[j]
			}
			feasible := true
			for _, c := range p.Constraints {
				lhs := 0.0
				for j, v := range c.Coeffs {
					lhs += v * x[j]
				}
				if c.Rel == LE && lhs > c.RHS+1e-9 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			z := 0.0
			for j := range x {
				z += p.Objective[j] * x[j]
			}
			if z < s.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
