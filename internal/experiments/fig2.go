package experiments

import (
	"strconv"

	"repro/internal/ilp"
)

// Fig2 reproduces Figure 2: runtime of the exact optimizer (the Gurobi
// stand-in, ilp.SolveSoCL) as the user count grows, for several
// edge-network sizes. The paper's observation — runtime grows over tenfold
// across the user sweep — is reproduced in shape; each solve is capped at
// Options.OptTimeLimit and capped runs are marked "(cap)" with the
// incumbent's optimality unproven.
//
// Scale note (EXPERIMENTS.md): the paper sweeps 10–30 servers at 40–60
// users. There every solve finishes in 1–6 s and runtime grows at most
// 2.4× with |U| (falling at 10 servers), so the sweep sits at 6–10 servers
// and 20–60 users, where it grows about tenfold along every row.
// bb_nodes depends on the schedule at Workers > 1; run with -workers 1 to
// reproduce it.
func Fig2(opts Options) *Table {
	nodeScales := []int{6, 8, 10}
	userScales := []int{20, 40, 60}
	if opts.Short {
		nodeScales = []int{6, 8}
		userScales = []int{10, 15, 20}
	}
	t := &Table{
		ID:     "fig2",
		Title:  "Exact optimizer runtime vs user count (log-scale y in the paper)",
		Header: []string{"nodes", "users", "runtime_s", "status", "bb_nodes", "star_obj"},
	}
	limit := opts.optLimit()
	for _, v := range nodeScales {
		for _, u := range userScales {
			in := buildInstance(v, u, opts.Seed)
			res, _, err := ilp.SolveSoCL(in, ilp.Options{TimeLimit: limit, Workers: opts.Workers})
			if err != nil {
				panic(err)
			}
			status := res.Status.String()
			if res.Status != ilp.Optimal {
				status += " (cap)"
			}
			t.AddRow(itoa(v), itoa(u), sec(res.Elapsed), status,
				itoa(res.Nodes), f1(res.Objective))
		}
	}
	return t
}

func itoa(v int) string { return strconv.Itoa(v) }
