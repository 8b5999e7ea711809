package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/ilp"
)

// Fig7 reproduces Figure 7 (a)–(d): the exact optimizer (OPT) versus SoCL
// on objective value and runtime, sweeping the user scale at a fixed
// network size (a, b) and the edge-node scale at a fixed user count (c, d).
// Both algorithms are scored by the shared exact evaluator so objective
// values are directly comparable; OPT optimizes the star-linearized ILP
// with a per-solve time cap, reporting its incumbent when capped (marked
// "(cap)") — mirroring how the paper reports Gurobi at scales where exact
// solving stops being practical.
//
// Both sweeps run through the parallel executor. Objective columns are
// deterministic per seed; the runtime columns (and a capped OPT's
// incumbent) remain wall-clock-dependent exactly as they were serially.
func Fig7(opts Options) (*Table, *Table) {
	userScales := []int{10, 20, 30, 40, 50, 60}
	nodeScales := []int{5, 10, 15, 20, 25, 30}
	fixedNodes, fixedUsers := 10, 40
	if opts.Short {
		userScales = []int{6, 10, 14}
		nodeScales = []int{5, 8}
		fixedNodes, fixedUsers = 8, 10
	}
	limit := opts.OptTimeLimit
	if limit == 0 {
		limit = opts.optLimit()
	}

	users := &Table{
		ID:     "fig7ab",
		Title:  "OPT vs SoCL over user scale (objective & runtime)",
		Header: []string{"users", "opt_obj", "socl_obj", "gap_pct", "opt_runtime_s", "socl_runtime_s", "opt_status"},
	}
	users.Rows = runSweep(opts, "fig7ab", len(userScales), func(i int, seed int64) []string {
		u := userScales[i]
		return optVsSoCLRow(fixedNodes, u, itoa(u), limit, seed, opts.Workers)
	})

	nodes := &Table{
		ID:     "fig7cd",
		Title:  "OPT vs SoCL over edge-node scale (objective & runtime)",
		Header: []string{"nodes", "opt_obj", "socl_obj", "gap_pct", "opt_runtime_s", "socl_runtime_s", "opt_status"},
	}
	nodes.Rows = runSweep(opts, "fig7cd", len(nodeScales), func(i int, seed int64) []string {
		v := nodeScales[i]
		return optVsSoCLRow(v, fixedUsers, itoa(v), limit, seed, opts.Workers)
	})
	return users, nodes
}

func optVsSoCLRow(nodes, users int, label string, limit time.Duration, seed int64, workers int) []string {
	in := buildInstance(nodes, users, seed)

	t0 := time.Now()
	sol, err := core.Solve(in, core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	soclTime := time.Since(t0)
	soclObj := sol.Evaluation.Objective

	res, p, err := ilp.SolveSoCL(in, ilp.Options{TimeLimit: limit, Workers: workers})
	if err != nil {
		panic(err)
	}
	optObj := soclObj
	status := res.Status.String()
	if res.Status == ilp.Optimal || res.Status == ilp.Feasible {
		optObj = in.Evaluate(p).Objective
	}
	if res.Status != ilp.Optimal {
		status += " (cap)"
	}
	gap := 0.0
	if optObj > 0 {
		gap = (soclObj - optObj) / optObj * 100
	}
	return []string{label, f1(optObj), f1(soclObj), f3(gap), sec(res.Elapsed), sec(soclTime), status}
}
