package experiments

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// ExtCloud measures the cloud-fallback extension at an adequate and at a
// deliberately hopeless budget: how many requests each algorithm pushes to
// the cloud and what that costs in latency. Below one instance per service
// (budget 3 000) every algorithm leaves no instance missing by serving
// requests from the cloud, and SoCL offloads as many requests at budget
// 8 000.
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
