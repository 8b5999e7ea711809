package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// slotInstances builds a sequence of instances over the same substrate with
// drifting workloads (different seeds → different homes/chains).
func slotInstances(n int, seed int64) []*model.Instance {
	g := topology.RandomGeometric(10, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	out := make([]*model.Instance, n)
	for s := 0; s < n; s++ {
		w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(30), seed+int64(s)*101)
		if err != nil {
			panic(err)
		}
		out[s] = &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
	}
	return out
}

func TestOnlineSolverBasics(t *testing.T) {
	slots := slotInstances(4, 1)
	o := NewOnlineSolver(DefaultConfig())
	routed := 0
	for s, in := range slots {
		sol, st, err := o.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		routed += sol.Stats.RouteCacheHits + sol.Stats.RouteRecomputed
		if !sol.Evaluation.Feasible() {
			t.Fatalf("slot %d infeasible: %+v", s, sol.Evaluation)
		}
		if s == 0 {
			if st.Started != sol.Placement.Instances() || st.Stopped != 0 {
				t.Fatalf("cold start churn wrong: %+v", st)
			}
		} else {
			if st.Kept < 0 || st.Started < 0 || st.Stopped < 0 {
				t.Fatalf("negative churn: %+v", st)
			}
			if st.Kept+st.Started != sol.Placement.Instances() {
				t.Fatalf("churn doesn't add up: %+v vs %d instances", st, sol.Placement.Instances())
			}
		}
	}
	// Step shares Solve's pipeline, so the routing-engine telemetry Solve
	// reports must not be dropped on the online path.
	if routed == 0 {
		t.Fatal("Step reported no route-cache telemetry over 4 slots")
	}
}

func TestOnlineWarmReducesChurn(t *testing.T) {
	slots := slotInstances(6, 2)

	// Warm: persistent online solver.
	warm := NewOnlineSolver(DefaultConfig())
	warmChurn := 0
	for s, in := range slots {
		_, st, err := warm.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if s > 0 {
			warmChurn += st.Started + st.Stopped
		}
	}

	// Cold: reset before every slot (equivalent to from-scratch Solve).
	cold := NewOnlineSolver(DefaultConfig())
	coldChurn := 0
	var prev model.Placement
	for s, in := range slots {
		cold.Reset()
		sol, _, err := cold.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if s > 0 {
			a, r := model.PlacementDiff(prev, sol.Placement)
			coldChurn += a + r
		}
		prev = sol.Placement
	}

	if warmChurn > coldChurn {
		t.Fatalf("warm churn %d exceeds cold churn %d", warmChurn, coldChurn)
	}
}

func TestOnlineResetAndShapeChange(t *testing.T) {
	o := NewOnlineSolver(DefaultConfig())
	slots := slotInstances(1, 3)
	if _, _, err := o.Step(slots[0]); err != nil {
		t.Fatal(err)
	}
	// Different node count → warm state must be dropped, not crash.
	g2 := topology.RandomGeometric(6, 0.4, topology.DefaultGenConfig(), 77)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 77)
	w, err := msvc.GenerateWorkload(cat, g2, msvc.DefaultWorkloadConfig(10), 77)
	if err != nil {
		t.Fatal(err)
	}
	in2 := &model.Instance{Graph: g2, Workload: w, Lambda: 0.5, Budget: 8000}
	sol, st, err := o.Step(in2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Started != sol.Placement.Instances() {
		t.Fatalf("shape change should cold-start: %+v", st)
	}
}

func TestOnlineInvalidInstance(t *testing.T) {
	o := NewOnlineSolver(DefaultConfig())
	slots := slotInstances(1, 4)
	slots[0].Lambda = 9
	if _, _, err := o.Step(slots[0]); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestPlacementDiff(t *testing.T) {
	a := model.NewPlacement(2, 3)
	b := model.NewPlacement(2, 3)
	a.Set(0, 0, true)
	a.Set(1, 2, true)
	b.Set(0, 0, true)
	b.Set(0, 1, true)
	added, removed := model.PlacementDiff(a, b)
	if added != 1 || removed != 1 {
		t.Fatalf("diff = +%d -%d, want +1 -1", added, removed)
	}
	// Against the zero placement, everything in b counts as added.
	added, removed = model.PlacementDiff(model.Placement{}, b)
	if added != 2 || removed != 0 {
		t.Fatalf("zero diff = +%d -%d", added, removed)
	}
}
