package config

import (
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// The evaluation regimes. Definition 1 scores a placement by
// λ·cost + (1−λ)·latency under the Eq. 4 deadlines and the Eq. 5 budget, so
// λ, the budget and the deadline slack decide which problem an experiment
// solves. Each regime below defines them once, with its hotspot setting and
// data-size ranges; experiments vary fields on a preset instead of restating
// them. All three set the deadline slack to 0 (deadlines off): the sweeps
// and traces measure latency, not SLOs.

// Paper is the regime of Figs. 2, 7 and 8, the ext_ ablations, ext_datasets,
// the socl CLI and the examples: a random geometric network (r = 0.35) with
// paper-ranged capacities, the eShopOnContainers catalog, the generator's
// default data ranges and hotspot, and a budget of 8000, the top of the
// paper's 5000–8000 range. λ = 0.5 weighs deployment cost and completion
// time equally.
func Paper(nodes, users int, seed int64) *Scenario {
	w := msvc.DefaultWorkloadConfig(users)
	w.DeadlineSlack = 0
	return &Scenario{
		Name: "paper", Seed: seed, Lambda: 0.5, Budget: 8000,
		Topology: TopologySpec{Kind: "geometric", Nodes: nodes, Radius: 0.35},
		Catalog:  CatalogSpec{Kind: "eshop"},
		Workload: w,
	}
}

// Default is the socl CLI's scenario: the paper regime at 10 nodes, 40
// users and seed 1.
func Default() *Scenario {
	sc := Paper(10, 40, 1)
	sc.Name = "default"
	return sc
}

// Testbed is the regime of Figs. 9/10 and every sim, serve and cluster
// experiment (sim.DefaultConfig reads it): λ, the budget, and the request
// generation ranges (NumUsers 0; the simulator draws its own users).
//
// The testbed workload is user-facing: most data moves on the ingress and
// egress legs (user uploads and result downloads), with lighter
// inter-service state, so proximity to users, not instance co-location,
// decides latency. λ = 0.05 makes the testbed latency-dominant: the paper's
// testbed tracks user-perceived delay (its λ is unreported), and SoCL's
// storage planning is explicitly designed to keep "more warm instances in
// the nearby area", which only manifests when latency outweighs the
// per-instance deployment cost in the per-slot objective.
func Testbed() (lambda, budget float64, w msvc.WorkloadConfig) {
	w = msvc.DefaultWorkloadConfig(0)
	w.DeadlineSlack = 0
	w.EdgeDataMin, w.EdgeDataMax = 1, 15
	w.InDataMin, w.InDataMax = 5, 25
	w.OutDataMin, w.OutDataMax = 5, 25
	return 0.05, 8000, w
}

// Clustered is the regime of ext_scale and the sharded-combine smoke bench:
// an unfinalized clustered substrate of regions × perRegion nodes, the
// eShopOnContainers catalog, users uniform over it (hotspot 0, so shard load
// stays balanced), and the shard plan following the generator's regions.
// The budget is 1.5 · regions · Σκ: it scales with the region count so the
// per-shard continuity floors stay affordable while the combine still has
// instances to trim. λ = 0.05 keeps the sweep in the latency-dominant regime
// sharding targets: with cost dominating, the global solve centralizes into
// one region and the per-region continuity floors read as pure regret.
func Clustered(users, regions, perRegion int, seed int64) (*model.Instance, *topology.ShardPlan, error) {
	g, regionNodes := topology.Clustered(topology.DefaultClusterConfig(regions, perRegion), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	wcfg := msvc.DefaultWorkloadConfig(users)
	wcfg.DeadlineSlack = 0
	wcfg.Hotspot = 0
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	if err != nil {
		return nil, nil, err
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.05, Budget: 1.5 * float64(regions) * cat.TotalDeployCost()}
	plan, err := topology.PlanShards(g, regionNodes)
	if err != nil {
		return nil, nil, err
	}
	return in, plan, nil
}
