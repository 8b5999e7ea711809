package combine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/topology"
)

func buildInstance(nodes, users int, seed int64, budget float64) (*model.Instance, *partition.Result, model.Placement) {
	return buildInstanceSlack(nodes, users, seed, budget, msvc.DefaultWorkloadConfig(users).DeadlineSlack)
}

// buildInstanceSlack is buildInstance with a chosen deadline slack.
func buildInstanceSlack(nodes, users int, seed int64, budget, slack float64) (*model.Instance, *partition.Result, model.Placement) {
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	wcfg := msvc.DefaultWorkloadConfig(users)
	wcfg.DeadlineSlack = slack
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	if err != nil {
		panic(err)
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: budget}
	part := partition.Build(in, partition.DefaultConfig())
	pre := preprov.Run(in, part)
	return in, part, pre.Placement
}

func TestRunMeetsBudget(t *testing.T) {
	in, part, pre := buildInstance(10, 40, 1, 8000)
	res := Run(in, part, pre, DefaultConfig())
	if !res.BudgetMet {
		t.Fatalf("budget not met: cost=%v budget=%v", in.DeployCost(res.Placement), in.Budget)
	}
	if got := in.DeployCost(res.Placement); got > in.Budget+1e-6 {
		t.Fatalf("final cost %v exceeds budget %v", got, in.Budget)
	}
}

func TestRunPreservesServiceContinuity(t *testing.T) {
	in, part, pre := buildInstance(10, 40, 2, 7000)
	res := Run(in, part, pre, DefaultConfig())
	for _, svc := range in.Workload.ServicesUsed() {
		if res.Placement.Count(svc) == 0 {
			t.Fatalf("service %d lost all instances", svc)
		}
	}
	ev := in.Evaluate(res.Placement)
	if ev.MissingInstances != 0 {
		t.Fatalf("evaluator reports %d missing instances", ev.MissingInstances)
	}
}

func TestRunNeverWorseThanPreprovObjective(t *testing.T) {
	// With a generous budget, combination is purely objective-driven; the
	// final exact objective should not exceed the pre-provisioned one by
	// more than the Θ slack per serial round (sanity: it usually improves).
	in, part, pre := buildInstance(10, 30, 3, 1e6)
	evPre := in.Evaluate(pre)
	res := Run(in, part, pre, DefaultConfig())
	evPost := in.Evaluate(res.Placement)
	slack := float64(res.SerialRounds+1) * theta * 2
	if evPost.Objective > evPre.Objective+slack {
		t.Fatalf("objective degraded: pre=%v post=%v slack=%v", evPre.Objective, evPost.Objective, slack)
	}
}

func TestRunRespectsStorage(t *testing.T) {
	in, part, pre := buildInstance(10, 40, 4, 8000)
	res := Run(in, part, pre, DefaultConfig())
	if k := in.CheckStorage(res.Placement); k != -1 {
		t.Fatalf("storage violated at node %d", k)
	}
}

func TestImpossibleBudgetReported(t *testing.T) {
	in, part, pre := buildInstance(8, 30, 5, 8000)
	in.Budget = 1 // below even one-instance-per-service
	res := Run(in, part, pre, DefaultConfig())
	if res.BudgetMet {
		t.Fatal("impossible budget reported as met")
	}
	// Continuity still preserved: combining stops at one instance per
	// service rather than dropping services.
	for _, svc := range in.Workload.ServicesUsed() {
		if res.Placement.Count(svc) == 0 {
			t.Fatalf("service %d dropped under impossible budget", svc)
		}
	}
}

func TestDeadlineRollbackFreezesInstances(t *testing.T) {
	// Storage is made non-binding so that deadline roll-back is the only
	// corrective mechanism exercised; migrations would otherwise shift
	// latencies after the deadlines were fixed below.
	gcfg := topology.DefaultGenConfig()
	gcfg.StorageMin, gcfg.StorageMax = 1000, 2000
	g := topology.RandomGeometric(10, 0.35, gcfg, 6)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 6)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(30), 6)
	if err != nil {
		t.Fatal(err)
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
	part := partition.Build(in, partition.DefaultConfig())
	pre := preprov.Run(in, part).Placement
	// Tighten deadlines to just above the pre-provisioned latency so that
	// combinations quickly violate them and roll-backs occur.
	ev := in.Evaluate(pre)
	for h := range in.Workload.Requests {
		in.Workload.Requests[h].Deadline = ev.Latencies[h] * 1.02
	}
	res := Run(in, part, pre, DefaultConfig())
	evPost := in.Evaluate(res.Placement)
	if evPost.DeadlineViolated != 0 {
		t.Fatalf("%d deadline violations survived roll-back", evPost.DeadlineViolated)
	}
}

func TestOmegaControlsBatchAggressiveness(t *testing.T) {
	in1, part1, pre1 := buildInstance(10, 40, 7, 6000)
	cfgSmall := DefaultConfig()
	cfgSmall.Omega = 0.05
	resSmall := Run(in1, part1, pre1, cfgSmall)

	in2, part2, pre2 := buildInstance(10, 40, 7, 6000)
	cfgBig := DefaultConfig()
	cfgBig.Omega = 0.9
	resBig := Run(in2, part2, pre2, cfgBig)

	if resSmall.ParallelRounds < resBig.ParallelRounds {
		t.Fatalf("smaller ω should need ≥ as many parallel rounds: %d vs %d",
			resSmall.ParallelRounds, resBig.ParallelRounds)
	}
	_ = resSmall
	_ = resBig
}

func TestConfigDefaultsApplied(t *testing.T) {
	in, part, pre := buildInstance(8, 20, 8, 8000)
	res := Run(in, part, pre, Config{Omega: -1})
	if in.DeployCost(res.Placement) > in.Budget+1e-6 {
		t.Fatal("defaulted config failed to meet budget")
	}
}

// Property: the combined placement is always a subset-or-migration of
// feasible sites, meets storage, keeps every used service alive, and its
// deploy cost never exceeds the pre-provisioned cost when the budget binds.
func TestCombineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		in, part, pre := buildInstance(8, 25, seed, 7000)
		preCost := in.DeployCost(pre)
		res := Run(in, part, pre, DefaultConfig())
		cost := in.DeployCost(res.Placement)
		if cost > preCost+1e-6 {
			return false // combining can only remove or migrate, never add
		}
		if in.CheckStorage(res.Placement) != -1 {
			return false
		}
		for _, svc := range in.Workload.ServicesUsed() {
			if res.Placement.Count(svc) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — same inputs, same placement.
func TestCombineDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		in1, part1, pre1 := buildInstance(8, 20, seed, 7000)
		in2, part2, pre2 := buildInstance(8, 20, seed, 7000)
		r1 := Run(in1, part1, pre1, DefaultConfig())
		r2 := Run(in2, part2, pre2, DefaultConfig())
		for i := 0; i < in1.M(); i++ {
			for k := 0; k < in1.V(); k++ {
				if r1.Placement.Has(i, k) != r2.Placement.Has(i, k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestZetaInfinityForLastReachableInstance(t *testing.T) {
	// Directly exercise ζ = +Inf: a service with exactly one instance must
	// be excluded from the instance set entirely.
	in, part, pre := buildInstance(8, 20, 9, 1e6)
	s := newState(in, part, pre, Config{})
	list := s.updateInstanceSet()
	for _, it := range list {
		if s.place.Count(it.key.svc) <= 1 {
			t.Fatalf("single-instance service %d in instance set", it.key.svc)
		}
	}
	// ζ must be finite for all listed instances (alternatives exist).
	for _, it := range list {
		if math.IsInf(it.zeta, 1) {
			t.Fatalf("infinite ζ for listed instance %+v", it.key)
		}
	}
}
