package experiments

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// ExtContention re-prices every algorithm's solution under the network-
// contention extension (link capacity shared within a decision slot): the
// introduction's "path conflicts and network contention" argument,
// quantified. Cost-blind redundant placements route more traffic over hot
// links and suffer more under contention.
func ExtContention(opts Options) *Table {
	users, nodes := 120, 10
	if opts.Short {
		users, nodes = 30, 8
	}
	t := &Table{
		ID:    "ext_contention",
		Title: "Contention re-pricing of placements (5-minute slot capacity sharing)",
		Header: []string{"algorithm", "latency_idle", "latency_contended",
			"inflation_pct", "congested_links", "max_utilization"},
	}
	in := buildInstance(nodes, users, opts.Seed)
	cc := model.DefaultContentionConfig()
	for _, algo := range fig8Algorithms(opts) {
		p, err := algo.Place(in)
		if err != nil {
			panic(err)
		}
		rep := in.EvaluateWithContention(p, model.RouteModeOptimal, opts.Seed, cc)
		maxU := 0.0
		for _, u := range rep.Utilization {
			if u > maxU {
				maxU = u
			}
		}
		infl := 0.0
		if rep.LatencySum > 0 {
			infl = (rep.LatencySumContended - rep.LatencySum) / rep.LatencySum * 100
		}
		t.AddRow(algo.Name(), f1(rep.LatencySum), f1(rep.LatencySumContended),
			f3(infl), itoa(rep.Congested), f3(maxU))
	}
	return t
}

// ExtCloud measures the cloud-fallback extension: with a deliberately
// hopeless budget, how many requests each algorithm pushes to the cloud and
// what that costs in latency versus an adequate budget.
func ExtCloud(opts Options) *Table {
	users, nodes := 60, 10
	if opts.Short {
		users, nodes = 15, 8
	}
	t := &Table{
		ID:    "ext_cloud",
		Title: "Cloud fallback under budget pressure",
		Header: []string{"budget", "algorithm", "cloud_served", "missing",
			"latency_sum", "objective"},
	}
	for _, budget := range []float64{8000, 3000} {
		in := buildInstance(nodes, users, opts.Seed)
		in.Budget = budget
		cloud := model.DefaultCloudConfig()
		in.Cloud = &cloud
		for _, algo := range []sim.Algorithm{sim.JDR{}, sim.SoCL{Config: core.DefaultConfig()}} {
			p, err := algo.Place(in)
			if err != nil {
				panic(err)
			}
			ev := in.Evaluate(p)
			t.AddRow(f1(budget), algo.Name(), itoa(ev.CloudServed),
				itoa(ev.MissingInstances), f1(ev.LatencySum), f1(ev.Objective))
		}
	}
	return t
}
