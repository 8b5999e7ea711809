// Package integration exercises the full SoCL stack across module
// boundaries: pipeline vs exact optimizers, serialization round trips into
// solves, the simulator driving every algorithm, and failure injection that
// no single package test can reach.
package integration

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/baselines"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/topology"
)

func makeInstance(nodes, users int, seed int64, budget float64) *model.Instance {
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		panic(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: budget}
}

// SoCL must stay within 10% of the proven optimum (the paper reports gaps
// below 9.9%) wherever the exact solver finishes.
func TestSoCLGapAgainstProvenOptimum(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := makeInstance(8, 12, seed, 8000)
		res, p, err := ilp.SolveSoCL(in, ilp.Options{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != ilp.Optimal {
			t.Logf("seed %d: optimum unproven in time, skipping", seed)
			continue
		}
		optObj := in.Evaluate(p).Objective
		sol, err := core.Solve(in, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		gap := (sol.Evaluation.Objective - optObj) / optObj
		if gap > 0.10 {
			t.Fatalf("seed %d: SoCL gap %.1f%% exceeds 10%%", seed, gap*100)
		}
	}
}

// A scenario saved to JSON, re-loaded, and solved must reproduce the exact
// same objective as the in-memory original.
func TestScenarioRoundTripSolves(t *testing.T) {
	sc := config.Default()
	sc.Workload.NumUsers = 25
	in1, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.json")
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	sc2, err := config.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := sc2.Build()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.Solve(in1, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.Solve(in2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Evaluation.Objective != s2.Evaluation.Objective {
		t.Fatalf("objectives differ after round trip: %v vs %v",
			s1.Evaluation.Objective, s2.Evaluation.Objective)
	}
}

// Every algorithm must survive a full simulated day slice with mobile users
// and produce zero failed requests.
func TestSimulatorDrivesAllAlgorithms(t *testing.T) {
	g := topology.Stadium(12, topology.DefaultGenConfig(), 9)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 9)
	algos := []sim.Algorithm{
		sim.SoCL{Config: core.DefaultConfig()},
		sim.NewSoCLOnline(core.DefaultConfig()),
		sim.RP{Seed: 9},
		sim.JDR{},
		sim.GCOG{},
	}
	for _, algo := range algos {
		cfg := sim.DefaultConfig(g, cat, 10, 9)
		cfg.DurationMinutes = 20
		res, err := sim.Run(cfg, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		for _, s := range res.Records {
			if s.Unserved() > 0 {
				t.Fatalf("%s: %d missing + %d unroutable requests at slot %d", algo.Name(), s.Missing, s.Unroutable, s.Epoch)
			}
		}
	}
}

// Failure injection: a disconnected substrate. Requests homed in one
// component for services only deployable in the other must surface as
// infinite latency, never as a crash or a silent wrong answer.
func TestDisconnectedSubstrate(t *testing.T) {
	g := topology.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0, 10, 50)
	}
	// Two islands: {0,1} and {2,3}.
	if err := g.AddLink(0, 1, 30); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(2, 3, 30); err != nil {
		t.Fatal(err)
	}
	g.Finalize()

	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 100, 1, 1)
	cat.AddFlow([]msvc.ServiceID{a})
	w := &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
		{ID: 0, Home: 0, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
		{ID: 1, Home: 2, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
	}}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e4}

	// Deploy only on island {0,1}: request 1's optimal route must be +Inf.
	p := model.NewPlacement(1, 4)
	p.Set(a, 0, true)
	ev := in.Evaluate(p)
	if !math.IsInf(ev.Latencies[1], 1) {
		t.Fatalf("cross-island latency = %v, want +Inf", ev.Latencies[1])
	}
	// SoCL on this instance must still cover both islands or yield a
	// well-formed (possibly infeasible) evaluation — never panic.
	sol, err := core.Solve(in, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Evaluation == nil {
		t.Fatal("nil evaluation")
	}
}

// Failure injection: a budget below one instance of each service. All
// algorithms must degrade gracefully (cover what they can, stay storage
// feasible) rather than crash.
func TestHopelessBudget(t *testing.T) {
	in := makeInstance(8, 15, 11, 8000)
	in.Budget = 10
	if _, err := core.Solve(in, core.DefaultConfig()); err != nil {
		t.Fatalf("SoCL crashed: %v", err)
	}
	_ = baselines.RP(in, 1)
	_ = baselines.JDR(in)
	_ = baselines.GCOG(in)
}

// Property: on random instances, the four algorithms produce placements the
// evaluator accepts, and SoCL's objective is never the worst of the four.
func TestSoCLNeverWorstProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := makeInstance(8, 30, seed, 8000)
		sol, err := core.Solve(in, core.DefaultConfig())
		if err != nil {
			return false
		}
		objs := []float64{
			in.Evaluate(baselines.RP(in, seed)).Objective,
			in.Evaluate(baselines.JDR(in)).Objective,
			in.Evaluate(baselines.GCOG(in).Placement).Objective,
		}
		worst := objs[0]
		for _, o := range objs {
			if o > worst {
				worst = o
			}
		}
		return sol.Evaluation.Objective <= worst+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end determinism: the whole stack (generation → solve → evaluate)
// replays exactly from a root seed.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() float64 {
		in := makeInstance(10, 40, 42, 8000)
		sol, err := core.Solve(in, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sol.Evaluation.Objective
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("end-to-end nondeterminism: %v vs %v", a, b)
	}
}
