package opt

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ilp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

func testInstance(nodes, users, services int, seed int64) *model.Instance {
	g := topology.RandomGeometric(nodes, 0.5, topology.DefaultGenConfig(), seed)
	cat := msvc.SyntheticCatalog(services, msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		panic(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e5}
}

func TestSolveTinyOptimalAndFeasible(t *testing.T) {
	in := testInstance(4, 5, 3, 1)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	ev := in.Evaluate(res.Placement)
	if ev.MissingInstances != 0 || ev.StorageViolatedAt != -1 || ev.OverBudget {
		t.Fatalf("OPT placement infeasible: %+v", ev)
	}
	if res.StarObjective <= 0 || math.IsInf(res.StarObjective, 0) {
		t.Fatalf("bad objective %v", res.StarObjective)
	}
	if res.Nodes <= 0 {
		t.Fatal("no nodes expanded")
	}
}

func TestSolveInfeasibleBudget(t *testing.T) {
	in := testInstance(4, 5, 3, 2)
	in.Budget = 1 // cannot deploy anything
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestTimeLimitAborts(t *testing.T) {
	in := testInstance(10, 25, 8, 3)
	res, err := Solve(in, Options{TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal && res.Elapsed > 500*time.Millisecond {
		t.Fatalf("time limit ignored: %v", res.Elapsed)
	}
	// With a warm-started or greedy incumbent we should at least be Feasible.
	if res.Status != Feasible && res.Status != Optimal && res.Status != NoSolution {
		t.Fatalf("unexpected status %v", res.Status)
	}
}

func TestNodeLimit(t *testing.T) {
	in := testInstance(8, 20, 6, 4)
	res, err := Solve(in, Options{MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 11 {
		t.Fatalf("node limit ignored: %d", res.Nodes)
	}
}

func TestWarmStartNeverWorseThanGreedy(t *testing.T) {
	in := testInstance(5, 8, 4, 5)
	base, err := Solve(in, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Status.isUsable() {
		t.Skipf("no incumbent at node limit: %v", base.Status)
	}
	ws, err := Solve(in, Options{MaxNodes: 1, WarmStart: &base.Placement})
	if err != nil {
		t.Fatal(err)
	}
	if ws.StarObjective > base.StarObjective+1e-9 {
		t.Fatalf("warm start degraded incumbent: %v > %v", ws.StarObjective, base.StarObjective)
	}
}

func (s Status) isUsable() bool { return s == Optimal || s == Feasible }

func TestValidatesInstance(t *testing.T) {
	in := testInstance(4, 4, 3, 6)
	in.Lambda = 2
	if _, err := Solve(in, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// Cross-validation: the specialized solver and the generic simplex-based
// MILP solver must agree on status and ILP optimum — a seeded sweep over
// nodes 3–5 × users 3–6 × three budget regimes (below the cheapest cover, so
// infeasible; binding; loose) × two seeds, 72 generated instances. Objectives
// are compared at LP accuracy (1e-6): model.ObjTol sits below what a simplex
// solution vector reproduces.
func TestMatchesGenericILP(t *testing.T) {
	cases, infeasible := 0, 0
	for nodes := 3; nodes <= 5; nodes++ {
		for users := 3; users <= 6; users++ {
			for seed := int64(1); seed <= 2; seed++ {
				for _, budget := range []float64{0.9, 1.3, 0} {
					in := testInstance(nodes, users, 3, seed+int64(10*nodes+users))
					if budget > 0 {
						cover := 0.0
						for _, svc := range in.Workload.ServicesUsed() {
							cover += in.Workload.Catalog.Service(svc).DeployCost
						}
						in.Budget = budget * cover
					}
					resOpt, err := Solve(in, Options{})
					if err != nil {
						t.Fatal(err)
					}
					m, _ := ilp.BuildSoCLBounded(in)
					resILP, err := ilp.SolveBounded(m, ilp.Options{TimeLimit: 60 * time.Second})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("nodes=%d users=%d seed=%d budget=%v", nodes, users, seed, in.Budget)
					cases++
					if resOpt.Status == Infeasible || resILP.Status == ilp.Infeasible {
						if resOpt.Status != Infeasible || resILP.Status != ilp.Infeasible {
							t.Fatalf("%s: statuses %v / %v", label, resOpt.Status, resILP.Status)
						}
						infeasible++
						continue
					}
					if resOpt.Status != Optimal || resILP.Status != ilp.Optimal {
						t.Fatalf("%s: statuses %v / %v", label, resOpt.Status, resILP.Status)
					}
					if math.Abs(resOpt.StarObjective-resILP.Objective) > 1e-6 {
						t.Fatalf("%s: opt %v != ilp %v", label, resOpt.StarObjective, resILP.Objective)
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d infeasible", cases, infeasible)
	if cases < 50 || infeasible == 0 || infeasible == cases {
		t.Fatalf("sweep degenerate: %d cases, %d infeasible", cases, infeasible)
	}
}

// Property: the exact optimum is never worse than any greedy single-node-
// per-service placement sampled at random.
func TestOptimumDominatesRandomFeasible(t *testing.T) {
	f := func(seed int64) bool {
		in := testInstance(4, 4, 3, seed)
		res, err := Solve(in, Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		// All single-node placements per used service (node 0..V-1 shared).
		for k := 0; k < in.V(); k++ {
			p := model.NewPlacement(in.M(), in.V())
			for _, s := range in.Workload.ServicesUsed() {
				p.Set(s, k, true)
			}
			if in.CheckStorage(p) != -1 || !in.CheckBudget(p) {
				continue
			}
			if obj, ok := starObj(in, p); ok && obj < res.StarObjective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// starObj mirrors the solver's internal star objective for test validation.
func starObj(in *model.Instance, p model.Placement) (float64, bool) {
	obj := in.Lambda * in.DeployCost(p)
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		for t := range req.Chain {
			best := math.Inf(1)
			for _, k := range p.NodesOf(req.Chain[t]) {
				if c := in.StarCoef(req, t, k); c < best {
					best = c
				}
			}
			if math.IsInf(best, 1) {
				return 0, false
			}
			obj += (1 - in.Lambda) * best
		}
	}
	return obj, true
}

// Property: reported StarObjective matches an independent recomputation on
// the returned placement.
func TestReportedObjectiveConsistent(t *testing.T) {
	f := func(seed int64) bool {
		in := testInstance(4, 5, 3, seed)
		res, err := Solve(in, Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		obj, ok := starObj(in, res.Placement)
		return ok && math.Abs(obj-res.StarObjective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
