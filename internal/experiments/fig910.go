package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Fig9 reproduces Figure 9: the small-scale testbed evaluation on 8 edge
// nodes with 50 and 70 users — total objective, provisioning cost, and
// completion time for RP, JDR and SoCL, plus the per-user median latency
// the paper quotes (RP/JDR/SoCL medians 2.795/3.989/2.796 at 50 users).
// The testbed is the time-slotted cluster simulator (DESIGN.md §1).
//
// User scales are independent sweep points (parallel executor, derived
// seed per point); within a point the three algorithms replay the same
// trace so their rows stay comparable. The testbed topology and catalog
// are fixed across scales — each point rebuilds them from the root seed,
// which is deterministic and keeps points free of shared state.
func Fig9(opts Options) *Table {
	userScales := []int{50, 70}
	nodes, slots := 8, 6
	if opts.Short {
		userScales = []int{12}
		slots = 3
	}
	t := &Table{
		ID:    "fig9",
		Title: "Testbed (simulated cluster), 8 edge nodes: objective, cost, delay",
		Header: []string{"users", "algorithm", "objective_sum", "cost_sum",
			"mean_delay", "median_user_delay", "max_delay"},
	}
	rows := runSweep(opts, "fig9", len(userScales), func(i int, seed int64) [][]string {
		u := userScales[i]
		g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), opts.Seed)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), opts.Seed)
		var out [][]string
		for _, algo := range fig910Algorithms(opts) {
			cfg := sim.DefaultConfig(g, cat, u, seed)
			cfg.DurationMinutes = float64(slots) * cfg.SlotMinutes
			res, err := sim.Run(cfg, algo)
			if err != nil {
				panic(fmt.Sprintf("fig9 %s: %v (completed %d slots)", algo.Name(), err, partialSlots(res)))
			}
			objSum, costSum := 0.0, 0.0
			for _, s := range res.Records {
				objSum += s.Objective
				costSum += s.Cost
			}
			out = append(out, []string{itoa(u), res.Algorithm, f1(objSum), f1(costSum),
				f3(res.MeanDelay()), f3(res.MedianDelay()), f3(res.MaxDelay())})
		}
		return out
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r...)
	}
	return t
}

// fig10Point is one algorithm's replay of the mobility trace.
type fig10Point struct {
	series  [][]string
	summary []string
}

// Fig10 reproduces Figure 10: the 4-hour mobility trace on 16 edge nodes
// with 50 users issuing requests every ~5 minutes under stochastic
// dependency chains — average delay per timestamp for RP, JDR and SoCL,
// plus the per-algorithm maximum delay the paper uses as its stability
// metric (SoCL 48.84 ms vs JDR 90.04 ms and RP 77.29 ms).
//
// The sweep dimension here is the algorithm, not the instance: every
// point must replay the *same* trace or the comparison is meaningless, so
// all points build their simulation from the root seed and the executor's
// derived per-point seed is deliberately unused.
func Fig10(opts Options) (*Table, *Table) {
	nodes, users := 16, 50
	duration := 240.0
	if opts.Short {
		nodes, users = 10, 12
		duration = 30
	}

	seriesT := &Table{
		ID:     "fig10",
		Title:  "Average delay per timestamp, 4-hour mobility trace, 16 edge nodes",
		Header: []string{"t_minutes", "algorithm", "avg_delay", "max_delay", "requests"},
	}
	summaryT := &Table{
		ID:     "fig10summary",
		Title:  "Delay summary over the mobility trace",
		Header: []string{"algorithm", "mean_delay", "p95_delay", "max_delay"},
	}
	algos := fig910Algorithms(opts)
	points := runSweep(opts, "fig10", len(algos), func(i int, _ int64) fig10Point {
		g := topology.RandomGeometric(nodes, 0.3, topology.DefaultGenConfig(), opts.Seed)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), opts.Seed)
		cfg := sim.DefaultConfig(g, cat, users, opts.Seed)
		cfg.DurationMinutes = duration
		res, err := sim.Run(cfg, algos[i])
		if err != nil {
			panic(fmt.Sprintf("fig10 %s: %v (completed %d slots)", algos[i].Name(), err, partialSlots(res)))
		}
		var pt fig10Point
		for _, s := range res.Records {
			pt.series = append(pt.series, []string{f1(float64(s.Epoch) * cfg.SlotMinutes), res.Algorithm,
				f3(s.AvgDelay), f3(s.MaxDelay), itoa(s.Requests)})
		}
		pt.summary = []string{res.Algorithm, f3(res.MeanDelay()), f3(res.DelayPercentile(95)), f3(res.MaxDelay())}
		return pt
	})
	for _, pt := range points {
		seriesT.Rows = append(seriesT.Rows, pt.series...)
		summaryT.AddRow(pt.summary...)
	}
	return seriesT, summaryT
}

func fig910Algorithms(opts Options) []sim.Algorithm {
	return []sim.Algorithm{
		sim.RP{Seed: opts.Seed},
		sim.JDR{},
		sim.SoCL{Config: core.DefaultConfig()},
	}
}
