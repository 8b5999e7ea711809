package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// Fig8 reproduces Figure 8 (a)–(d): the weighted objective (cost & latency)
// of RP, JDR, GC-OG and SoCL over growing user scales at 10 edge servers.
// The paper's shape — SoCL lowest at every scale, GC-OG second but slow,
// JDR inflated by redundancy, RP worst and degrading fastest — is what this
// driver regenerates, together with each algorithm's decision runtime.
//
// User scales run through the parallel sweep executor (one instance per
// point, derived seed); within a point the four placements are scored by a
// single DeltaEvaluator advanced placement-to-placement, so only the
// requests the placement diff touches are re-routed between algorithms.
func Fig8(opts Options) *Table {
	userScales := []int{80, 120, 160, 200}
	nodes := 10
	if opts.Short {
		userScales = []int{20, 40}
		nodes = 8
	}
	t := &Table{
		ID:    "fig8",
		Title: "Objective (cost & latency) vs user scale, 10 servers",
		Header: []string{"users", "algorithm", "objective", "cost", "latency_sum",
			"runtime_s", "instances"},
	}
	rows := runSweep(opts, "fig8", len(userScales), func(i int, seed int64) [][]string {
		u := userScales[i]
		in := buildInstance(nodes, u, seed)
		var out [][]string
		var de *model.DeltaEvaluator
		for _, algo := range fig8Algorithms(opts) {
			t0 := time.Now()
			p, err := algo.Place(in)
			el := time.Since(t0)
			if err != nil {
				panic(err)
			}
			if de == nil {
				de = model.NewDeltaEvaluator(in, p, model.RouteModeOptimal, 0)
			} else {
				de.AdvanceTo(p)
			}
			ev := de.Eval()
			out = append(out, []string{itoa(u), algo.Name(), f1(ev.Objective), f1(ev.Cost),
				f1(ev.LatencySum), sec(el), itoa(p.Instances())})
		}
		return out
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r...)
	}
	return t
}

// fig8Algorithms is the figure's four contenders, in table order.
func fig8Algorithms(opts Options) []sim.Algorithm {
	return []sim.Algorithm{
		sim.RP{Seed: opts.Seed},
		sim.JDR{},
		sim.GCOG{},
		sim.SoCL{Config: core.DefaultConfig()},
	}
}
