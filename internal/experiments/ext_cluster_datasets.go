package experiments

import (
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ExtCluster re-runs the Fig. 9/10 comparison at cluster fidelity (package
// cluster): discrete-event execution with FIFO queueing on nodes and links
// and 30-second container cold starts. This is the closest this repository
// gets to the paper's real Kubernetes testbed; the analytic simulator's
// orderings should survive the added queueing and cold-start effects, and
// the warm online solver should show fewer cold starts than one-shot SoCL.
func ExtCluster(opts Options) *Table {
	nodes, users := 12, 30
	horizon := 3600.0 // one hour
	if opts.Short {
		nodes, users = 8, 10
		horizon = 1200
	}
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), opts.Seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), opts.Seed)

	t := &Table{
		ID:    "ext_cluster",
		Title: "Cluster-fidelity testbed (queueing + cold starts)",
		Header: []string{"algorithm", "completed", "mean_sojourn", "p95_sojourn",
			"max_sojourn", "cold_starts", "mean_slot_cost"},
	}
	algos := []sim.Algorithm{
		sim.RP{Seed: opts.Seed},
		sim.JDR{},
		sim.SoCL{Config: core.DefaultConfig()},
		sim.NewSoCLOnline(core.DefaultConfig()),
	}
	for _, algo := range algos {
		cfg := cluster.DefaultConfig(g, cat, users, opts.Seed)
		cfg.Horizon = horizon
		res, err := cluster.Run(cfg, algo)
		if err != nil {
			panic(err)
		}
		meanCost := 0.0
		for _, c := range res.SlotCosts {
			meanCost += c
		}
		if len(res.SlotCosts) > 0 {
			meanCost /= float64(len(res.SlotCosts))
		}
		t.AddRow(res.Algorithm, itoa(res.Completed), f3(res.MeanSojourn()),
			f3(res.P95Sojourn()), f3(res.MaxSojourn()), itoa(res.ColdStarts), f1(meanCost))
	}
	return t
}

// ExtDatasets sweeps the embedded application datasets (eShopOnContainers,
// Sock Shop, PiggyMetrics, Hotel Reservation — four of the twenty projects
// in the paper's curated dataset family) at a fixed scale. On all four
// service graphs RP has the highest objective, and SoCL is within 4 % of the
// best; which of JDR, GC-OG and SoCL is best varies with the graph.
func ExtDatasets(opts Options) *Table {
	users, nodes := 60, 10
	if opts.Short {
		users, nodes = 15, 8
	}
	t := &Table{
		ID:    "ext_datasets",
		Title: "Algorithm ordering across application datasets",
		Header: []string{"dataset", "services", "algorithm", "objective",
			"cost", "latency_sum"},
	}
	for _, name := range msvc.DatasetNames() {
		sc := config.Paper(nodes, users, opts.Seed)
		sc.Catalog.Kind = name
		in := sc.MustBuild()
		cat := in.Workload.Catalog
		for _, algo := range fig8Algorithms(opts) {
			p, err := algo.Place(in)
			if err != nil {
				panic(err)
			}
			ev := in.Evaluate(p)
			t.AddRow(name, itoa(cat.Len()), algo.Name(), f1(ev.Objective),
				f1(ev.Cost), f1(ev.LatencySum))
		}
	}
	return t
}
