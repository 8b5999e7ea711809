package ilp

import (
	"fmt"
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

// bruteForceSoCL is an oracle for the Definition-4 ILP that shares none of
// BuildSoCLBounded's rows: it enumerates every deployment x over the used
// services (each needs at least one instance; unused ones get none, which
// never costs more), keeps those within storage (6) and budget (5), routes
// every request step to its cheapest star coefficient — the optimal y for a
// fixed x; it minimises each request's latency, so it meets a deadline (4)
// whenever any routing does — and returns the best objective. ok is false when no deployment is feasible.
func bruteForceSoCL(in *model.Instance) (best float64, ok bool) {
	used := in.Workload.ServicesUsed()
	V := in.V()
	masks := make([]int, len(used))
	for i := range masks {
		masks[i] = 1
	}
	best = math.Inf(1)
	for {
		p := model.NewPlacement(in.M(), V)
		for i, svc := range used {
			for k := 0; k < V; k++ {
				if masks[i]&(1<<k) != 0 {
					p.Set(svc, k, true)
				}
			}
		}
		if obj, feasible := starRouted(in, p); feasible && obj < best {
			best, ok = obj, true
		}
		// Advance the odometer over the non-empty node masks.
		i := 0
		for ; i < len(masks); i++ {
			if masks[i]++; masks[i] < 1<<V {
				break
			}
			masks[i] = 1
		}
		if i == len(masks) {
			return best, ok
		}
	}
}

// starRouted scores p with every step routed to its cheapest star
// coefficient and reports whether p satisfies storage, budget, coverage and
// every finite deadline.
func starRouted(in *model.Instance, p model.Placement) (float64, bool) {
	if in.CheckStorage(p) != -1 || !in.CheckBudget(p) {
		return 0, false
	}
	latency := 0.0
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		d := routedLatency(in, p, req)
		if math.IsInf(d, 1) || d > req.Deadline+model.FeasTol {
			return 0, false
		}
		latency += d
	}
	return in.Lambda*in.DeployCost(p) + (1-in.Lambda)*latency, true
}

// BuildSoCLBounded on 3×3 instances must reach the optimum of an
// enumeration over every bit of x, and its decoded placement must cover
// every used service.
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

// sweepCase is one instance of the seeded SolveSoCL sweep: nodes 3–5 ×
// users 3–6 × two seeds × three budget regimes — below the cheapest cover
// (belowCover, so infeasible), binding, and loose — 72 instances.
type sweepCase struct {
	label      string
	in         *model.Instance
	belowCover bool
}

func soclSweep() []sweepCase {
	var cases []sweepCase
	for nodes := 3; nodes <= 5; nodes++ {
		for users := 3; users <= 6; users++ {
			for seed := int64(1); seed <= 2; seed++ {
				for _, budget := range []float64{0.9, 1.3, 0} {
					in := soclInstance(nodes, users, seed+int64(10*nodes+users))
					if budget > 0 {
						cover := 0.0
						for _, svc := range in.Workload.ServicesUsed() {
							cover += in.Workload.Catalog.Service(svc).DeployCost
						}
						in.Budget = budget * cover
					}
					cases = append(cases, sweepCase{
						label:      fmt.Sprintf("nodes=%d users=%d seed=%d budget=%v", nodes, users, seed, in.Budget),
						in:         in,
						belowCover: budget > 0 && budget < 1,
					})
				}
			}
		}
	}
	return cases
}

// solveSweep runs SolveSoCL on every sweep case and calls f with its result.
func solveSweep(t *testing.T, f func(c sweepCase, res Result, p model.Placement)) {
	t.Helper()
	for _, c := range soclSweep() {
		res, p, err := SolveSoCL(c.in, Options{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		f(c, res, p)
	}
}

// The SoCL model must agree with an oracle that shares none of its rows:
// SolveSoCL and bruteForceSoCL must report the same status and optimum on
// every sweep instance. Objectives are compared at LP accuracy (1e-6):
// model.ObjTol sits below what a simplex solution vector reproduces.
func TestSolveSoCLMatchesBruteForce(t *testing.T) {
	cases, infeasible := 0, 0
	solveSweep(t, func(c sweepCase, res Result, _ model.Placement) {
		cases++
		want, ok := bruteForceSoCL(c.in)
		if !ok {
			if res.Status != Infeasible {
				t.Fatalf("%s: status %v, brute force finds no feasible deployment", c.label, res.Status)
			}
			infeasible++
			return
		}
		if res.Status != Optimal {
			t.Fatalf("%s: status %v, brute-force optimum %v", c.label, res.Status, want)
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("%s: ILP optimum %v != brute-force optimum %v", c.label, res.Objective, want)
		}
	})
	t.Logf("%d cases, %d infeasible", cases, infeasible)
	if cases != 72 || infeasible == 0 || infeasible == cases {
		t.Fatalf("sweep degenerate: %d cases, %d infeasible", cases, infeasible)
	}
}

// On every optimal sweep instance the decoded placement must be feasible
// and reproduce the reported objective.
func TestSolveSoCLObjectiveConsistent(t *testing.T) {
	optimal := 0
	solveSweep(t, func(c sweepCase, res Result, p model.Placement) {
		if res.Status != Optimal {
			return
		}
		optimal++
		got, feasible := starRouted(c.in, p)
		if !feasible || math.Abs(got-res.Objective) > 1e-6 {
			t.Fatalf("%s: decoded placement scores %v (feasible %v), reported %v", c.label, got, feasible, res.Objective)
		}
	})
	if optimal == 0 {
		t.Fatal("no optimal sweep instance")
	}
}

// No feasible placement that co-locates every used service on one node may
// beat a sweep instance's optimum.
func TestSolveSoCLDominatesColocated(t *testing.T) {
	compared := 0
	solveSweep(t, func(c sweepCase, res Result, _ model.Placement) {
		if res.Status != Optimal {
			return
		}
		for k := 0; k < c.in.V(); k++ {
			q := model.NewPlacement(c.in.M(), c.in.V())
			for _, svc := range c.in.Workload.ServicesUsed() {
				q.Set(svc, k, true)
			}
			obj, feasible := starRouted(c.in, q)
			if !feasible {
				continue
			}
			compared++
			if obj < res.Objective-1e-6 {
				t.Fatalf("%s: co-locating on node %d scores %v < optimum %v", c.label, k, obj, res.Objective)
			}
		}
	})
	if compared == 0 {
		t.Fatal("no feasible co-located placement to compare")
	}
}

// A budget below the cheapest cover — every used service needs one
// instance — must be reported infeasible with an empty placement, as must
// a budget that affords no instance at all.
func TestSolveSoCLInfeasibleBudget(t *testing.T) {
	belowCover := 0
	solveSweep(t, func(c sweepCase, res Result, p model.Placement) {
		if !c.belowCover {
			return
		}
		belowCover++
		if res.Status != Infeasible {
			t.Fatalf("%s: status %v, want infeasible", c.label, res.Status)
		}
		if got := c.in.DeployCost(p); got != 0 {
			t.Fatalf("%s: infeasible result carries a placement costing %v", c.label, got)
		}
	})
	if belowCover != 24 {
		t.Fatalf("%d below-cover cases, want 24", belowCover)
	}
	in := soclInstance(4, 5, 3)
	in.Budget = 1
	res, _, err := SolveSoCL(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("budget 1: status %v, want infeasible", res.Status)
	}
}
