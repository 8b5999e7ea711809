package ilp

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/stats"
)

// knapsackMIP is max 10a+13b+7c, weights 3,4,2, cap 6, binaries as [0,1]
// bounds; the unique optimum is b+c = 20.
func knapsackMIP() *BoundedMIP {
	p := lp.NewBoundedProblem(3)
	p.SetObjective(0, -10)
	p.SetObjective(1, -13)
	p.SetObjective(2, -7)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 1)
	}
	p.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, lp.LE, 6)
	return &BoundedMIP{Prob: p, Integer: []bool{true, true, true}}
}

func TestBoundedKnapsackMatchesRowBased(t *testing.T) {
	for _, m := range []*BoundedMIP{knapsackMIP(), rowEncoded(knapsackMIP())} {
		res, err := SolveBounded(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal || math.Abs(res.Objective-(-20)) > 1e-6 {
			t.Fatalf("status=%v obj=%v, want optimal -20", res.Status, res.Objective)
		}
	}
}

func TestBoundedMIPInfeasible(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.SetBounds(0, 0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 2)
	res, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestBoundedMIPIntegerInfeasible(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 0.4)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 0.6)
	res, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestBoundedValidate(t *testing.T) {
	if _, err := SolveBounded(&BoundedMIP{}, Options{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := lp.NewBoundedProblem(2)
	if _, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true}}, Options{}); err == nil {
		t.Fatal("integer length mismatch accepted")
	}
}

// rowEncoded rewrites m with every finite variable bound as an explicit row
// over the default [0, +Inf) bounds. Solving both forms sends the same model
// down two different simplex paths (bound flips and at-upper states vs slack
// rows).
func rowEncoded(m *BoundedMIP) *BoundedMIP {
	p := lp.NewBoundedProblem(m.Prob.NumVars)
	copy(p.Objective, m.Prob.Objective)
	for _, c := range m.Prob.Constraints {
		p.AddConstraint(c.Coeffs, c.Rel, c.RHS)
	}
	for j := 0; j < m.Prob.NumVars; j++ {
		if lo := m.Prob.Lower[j]; lo > 0 {
			p.AddConstraint(map[int]float64{j: 1}, lp.GE, lo)
		}
		if up := m.Prob.Upper[j]; !math.IsInf(up, 1) {
			p.AddConstraint(map[int]float64{j: 1}, lp.LE, up)
		}
	}
	return &BoundedMIP{Prob: p, Integer: m.Integer}
}

// Differential property: B&B on native [0,1] bounds matches B&B on the
// row-based encoding of the same random binary program, and both match
// brute-force enumeration.
func TestBoundedMIPMatchesRowBasedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 4 + r.Intn(4)
		pb := lp.NewBoundedProblem(n)
		for j := 0; j < n; j++ {
			pb.SetObjective(j, math.Round((r.Float64()*20-10)*4)/4)
			pb.SetBounds(j, 0, 1)
		}
		for i := 0; i < 2; i++ {
			coeffs := map[int]float64{}
			for j := 0; j < n; j++ {
				coeffs[j] = math.Round(r.Float64()*5*4) / 4
			}
			pb.AddConstraint(coeffs, lp.LE, math.Round(r.Float64()*float64(n)*3*4)/4)
		}
		integer := make([]bool, n)
		for j := range integer {
			integer[j] = true
		}
		mb := &BoundedMIP{Prob: pb, Integer: integer}
		rb, err1 := SolveBounded(mb, Options{})
		rr, err2 := SolveBounded(rowEncoded(mb), Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if rb.Status != rr.Status {
			return false
		}
		want := bruteForceBinary(pb)
		if math.IsInf(want, 1) {
			return rb.Status == Infeasible
		}
		return rb.Status == Optimal &&
			math.Abs(rb.Objective-rr.Objective) < 1e-5 && math.Abs(rb.Objective-want) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The SoCL model builder must agree with an oracle that shares none of its
// code: brute-force enumeration of every placement, each scored with optimal
// per-step star routing. (soclInstance sets no deadlines, so storage and
// budget are the only hard constraints.)
func TestBuildSoCLBoundedMatches(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := soclInstance(3, 3, seed)
		mb, vmb := BuildSoCLBounded(in)
		rb, err := SolveBounded(mb, Options{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if rb.Status != Optimal {
			t.Fatalf("seed %d: status %v", seed, rb.Status)
		}
		want := math.Inf(1)
		bits := in.M() * in.V()
		for mask := 0; mask < 1<<bits; mask++ {
			p := model.NewPlacement(in.M(), in.V())
			for b := 0; b < bits; b++ {
				if mask&(1<<b) != 0 {
					p.Set(b/in.V(), b%in.V(), true)
				}
			}
			if in.CheckStorage(p) != -1 || !in.CheckBudget(p) {
				continue
			}
			if obj := starObjective(in, p); obj < want {
				want = obj
			}
		}
		if math.Abs(rb.Objective-want) > 1e-4 {
			t.Fatalf("seed %d: ILP optimum %v != enumerated optimum %v", seed, rb.Objective, want)
		}
		p := vmb.Placement(rb.X)
		for _, s := range in.Workload.ServicesUsed() {
			if p.Count(s) == 0 {
				t.Fatalf("seed %d: service %d uncovered", seed, s)
			}
		}
	}
}
