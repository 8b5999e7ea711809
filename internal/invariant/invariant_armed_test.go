//go:build soclinvariants

package invariant

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// This file runs only under the soclinvariants tag: it proves the armed
// checks actually fire (a suite of assertions that can never fail is
// indistinguishable from one that never runs).

func expectPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

func armedInstance(t *testing.T, seed int64) *model.Instance {
	t.Helper()
	g := topology.RandomGeometric(8, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(20), seed)
	if err != nil {
		t.Fatal(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e9}
}

func densePlacement(in *model.Instance) model.Placement {
	p := model.NewPlacement(in.M(), in.V())
	for i := 0; i < in.M(); i++ {
		for k := 0; k < in.V(); k++ {
			p.Set(i, k, true)
		}
	}
	return p
}

func TestArmedAssert(t *testing.T) {
	if !Enabled {
		t.Fatal("soclinvariants build must set Enabled")
	}
	Assert(true, "must not fire")
	Assertf(true, "must not fire")
	expectPanic(t, "broken", func() { Assert(false, "broken") })
	expectPanic(t, "broken 42", func() { Assertf(false, "broken %d", 42) })
}

// TestArmedIndexWatch proves both halves of the epoch memoization: a stale
// cache is caught on a fresh watch, and a watch that already verified the
// current epoch skips the scan entirely (so per-phase checks stay O(1)
// between mutations — raw writes do not bump the epoch, which is exactly
// why every placement write must go through the index).
func TestArmedIndexWatch(t *testing.T) {
	p := model.NewPlacement(2, 4)
	p.Set(0, 1, true)
	ix := model.NewPlacementIndex(p)
	ix.NodesOf(0) // build both cached lists
	ix.NodesOf(1)

	var w IndexWatch
	w.Check(ix) // verifies and memoizes epoch

	p.X[0][2] = true // raw write: cache stale, epoch unchanged
	w.Check(ix)      // memoized — must NOT panic (and must not scan)

	var fresh IndexWatch
	expectPanic(t, "stale", func() { fresh.Check(ix) })

	p.X[0][2] = false // restore coherence
	fresh = IndexWatch{}
	fresh.Check(ix)
	ix.Set(1, 3, true) // epoch bump forces the next scan
	ix.NodesOf(1)
	fresh.Check(ix) // re-verifies at the new epoch
}

func TestArmedFeasibilityChecks(t *testing.T) {
	in := armedInstance(t, 1)
	p := densePlacement(in)

	in.Budget = in.DeployCost(p) + 1
	CheckBudget(in, p, "test")
	in.Budget = in.DeployCost(p) / 2
	expectPanic(t, "Eq. 5", func() { CheckBudget(in, p, "test") })
	in.Budget = 1e9

	if k := in.CheckStorage(p); k >= 0 {
		expectPanic(t, "Eq. 6", func() { CheckStorage(in, p, "test") })
	} else {
		CheckStorage(in, p, "test")
	}
}

// TestArmedWarmFactorization proves the factorization probe fires on a solved
// warm solver without panicking (healthy residual), and is a no-op before any
// solve (no basis to check).
func TestArmedWarmFactorization(t *testing.T) {
	p := lp.NewBoundedProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -2)
	p.SetBounds(0, 0, 3)
	p.SetBounds(1, 0, 2)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, lp.LE, 4)
	ws, err := lp.NewWarmSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	CheckWarmFactorization(ws, "test") // not ready: must be a no-op
	sol, err := ws.SolveWithBounds(p.Lower, p.Upper)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	CheckWarmFactorization(ws, "test") // healthy basis: must not panic
}

// TestArmedDeadlineRecountClassSplit pins the recount to the evaluator's
// class split on a crashed-node fixture: node 1, the only link between the
// user's node 0 and the instance on node 2, is down, so the finite-deadline
// request is unroutable — deployed but unreachable — and the evaluator counts
// it deadline-violated. With no instance at all the same request is Missing
// and outside Eq. 4. The recount must agree both times.
func TestArmedDeadlineRecountClassSplit(t *testing.T) {
	g := topology.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(float64(i), 0, 10, 50)
	}
	for _, l := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.AddLink(l[0], l[1], 30); err != nil {
			t.Fatal(err)
		}
	}
	g.Finalize()
	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 100, 1, 1)
	cat.AddFlow([]msvc.ServiceID{a})
	base := &model.Instance{Graph: g, Lambda: 0.5, Budget: 1e4, Workload: &msvc.Workload{Catalog: cat,
		Requests: []msvc.Request{{Home: 0, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: 100}}}}
	m := chaos.NewMask(g)
	if err := m.Apply(chaos.Event{Kind: chaos.NodeCrash, Node: 1}); err != nil {
		t.Fatal(err)
	}
	in := m.Instance(base)

	p := model.NewPlacement(1, 3)
	p.Set(a, 2, true)
	ev := in.Evaluate(p)
	if ev.Unroutable != 1 || ev.DeadlineViolated != 1 {
		t.Fatalf("fixture: want 1 unroutable, 1 late; got %d, %d", ev.Unroutable, ev.DeadlineViolated)
	}
	CheckPostRepair(in, ev, "unroutable")

	ev = in.Evaluate(model.NewPlacement(1, 3))
	if ev.MissingInstances != 1 || ev.DeadlineViolated != 0 {
		t.Fatalf("fixture: want 1 missing, 0 late; got %d, %d", ev.MissingInstances, ev.DeadlineViolated)
	}
	CheckPostRepair(in, ev, "missing")

	ev.DeadlineViolated = 1
	expectPanic(t, "Eq. 4", func() { CheckDeadlineRecount(in, ev, "tampered") })
}
