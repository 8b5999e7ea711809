package experiments

import (
	"fmt"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ExtBudget sweeps the cost constraint over the paper's stated range
// (5000–8000) at fixed scale, reporting every algorithm's objective, cost
// and latency — the budget dimension Section V-A mentions but no figure
// isolates. SoCL wins by shedding services to the cloud, and no budget binds
// it: at every budget it has the lowest objective and cost but the highest
// latency, and its row is the same at all five budgets.
func ExtBudget(opts Options) *Table {
	budgets := []float64{5800, 6400, 7000, 7600, 8200}
	users, nodes := 80, 10
	if opts.Short {
		budgets = []float64{6400, 8200}
		users, nodes = 20, 8
	}
	t := &Table{
		ID:     "ext_budget",
		Title:  "Objective vs deployment budget (paper range 5000–8000)",
		Header: []string{"budget", "algorithm", "objective", "cost", "latency_sum", "budget_met"},
	}
	// The graph and workload depend only on scale and seed, so one shared
	// instance serves every budget point with in.Budget rebound per point —
	// and one DeltaEvaluator scores all budgets × algorithms, re-routing
	// only the requests each placement diff touches (the evaluator reads
	// Budget fresh at every Eval, so rebinding it between points is safe).
	// This driver therefore stays serial by construction.
	in := buildInstance(nodes, users, opts.Seed)
	// The lowest budgets sit below one-instance-per-service; the cloud
	// fallback keeps those rows comparable (uncovered services serve
	// from the cloud at WAN latency instead of scoring +Inf).
	cloud := model.DefaultCloudConfig()
	in.Cloud = &cloud
	var de *model.DeltaEvaluator
	for _, b := range budgets {
		in.Budget = b
		for _, algo := range fig8Algorithms(opts) {
			p, err := algo.Place(in)
			if err != nil {
				panic(err)
			}
			if de == nil {
				de = model.NewDeltaEvaluator(in, p, model.RouteModeOptimal, 0)
			} else {
				de.AdvanceTo(p)
			}
			ev := de.Eval()
			met := "yes"
			if ev.OverBudget {
				met = "no"
			}
			t.AddRow(f1(b), algo.Name(), f1(ev.Objective), f1(ev.Cost), f1(ev.LatencySum), met)
		}
	}
	return t
}

// ExtLambda sweeps the objective weight λ, showing the cost/latency trade
// each algorithm strikes — the knob Definition 1 introduces.
func ExtLambda(opts Options) *Table {
	// The sweep reaches down to λ where the per-instance cost λ·κ drops
	// below typical latency losses ζ, so the latency-leaning regime (more
	// instances, lower latency) is visible — at moderate λ the combine
	// always trims to minimal coverage (cost dominates at these scales).
	lambdas := []float64{0.001, 0.01, 0.1, 0.5, 0.9}
	users, nodes := 60, 10
	if opts.Short {
		lambdas = []float64{0.002, 0.8}
		users, nodes = 15, 8
	}
	t := &Table{
		ID:     "ext_lambda",
		Title:  "Cost/latency trade-off vs λ (SoCL)",
		Header: []string{"lambda", "objective", "cost", "latency_sum", "instances"},
	}
	for _, l := range lambdas {
		in := buildInstance(nodes, users, opts.Seed)
		in.Lambda = l
		sol, err := core.Solve(in, core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		ev := sol.Evaluation
		t.AddRow(f3(l), f1(ev.Objective), f1(ev.Cost), f1(ev.LatencySum), itoa(sol.Placement.Instances()))
	}
	return t
}

// ExtOmega is the ω ablation (DESIGN.md §5): the parallel-combination
// fraction against combination rounds and solution quality. As ω grows
// `parallel_rounds` does not rise, and the objective spans less than 1 %.
func ExtOmega(opts Options) *Table {
	omegas := []float64{0.05, 0.15, 0.25, 0.5, 0.9}
	users, nodes := 80, 12
	if opts.Short {
		omegas = []float64{0.1, 0.9}
		users, nodes = 20, 8
	}
	t := &Table{
		ID:     "ext_omega",
		Title:  "Ablation: parallel-combination fraction ω",
		Header: []string{"omega", "objective", "parallel_rounds", "serial_rounds", "combined", "runtime_s"},
	}
	for _, om := range omegas {
		in := buildInstance(nodes, users, opts.Seed)
		part := partition.Build(in, partition.DefaultConfig())
		pre := preprov.Run(in, part)
		cfg := combine.DefaultConfig()
		cfg.Omega = om
		t0 := time.Now()
		res := combine.Run(in, part, pre.Placement, cfg)
		el := time.Since(t0)
		ev := in.Evaluate(res.Placement)
		t.AddRow(f3(om), f1(ev.Objective), itoa(res.ParallelRounds), itoa(res.SerialRounds),
			itoa(res.Combined), sec(el))
	}
	return t
}

// ExtXi is the ξ ablation: the virtual-link threshold's effect on group
// counts and final objective.
func ExtXi(opts Options) *Table {
	quantiles := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	users, nodes := 80, 12
	if opts.Short {
		quantiles = []float64{0.2, 0.8}
		users, nodes = 20, 8
	}
	t := &Table{
		ID:     "ext_xi",
		Title:  "Ablation: partition threshold ξ (as a virtual-link speed quantile)",
		Header: []string{"xi_quantile", "avg_groups_per_service", "objective"},
	}
	for _, q := range quantiles {
		in := buildInstance(nodes, users, opts.Seed)
		cfg := core.DefaultConfig()
		cfg.Partition = partition.Config{Xi: 0, XiQuantile: q}
		sol, err := core.Solve(in, cfg)
		if err != nil {
			panic(err)
		}
		groups, services := 0, 0
		for _, sp := range sol.Partition.ByService {
			groups += len(sp.Groups)
			services++
		}
		avg := 0.0
		if services > 0 {
			avg = float64(groups) / float64(services)
		}
		t.AddRow(f3(q), f3(avg), f1(sol.Evaluation.Objective))
	}
	return t
}

// ExtOnline compares one-shot SoCL (re-solve from scratch each slot) with
// the warm-started online solver over a mobility trace: objective parity at
// much lower placement churn (container cold-starts).
func ExtOnline(opts Options) *Table {
	nodes, users := 12, 30
	duration := 120.0
	if opts.Short {
		nodes, users = 8, 10
		duration = 30
	}
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), opts.Seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), opts.Seed)

	t := &Table{
		ID:     "ext_online",
		Title:  "One-shot vs warm-started online SoCL over a mobility trace",
		Header: []string{"mode", "mean_delay", "objective_sum", "churn"},
	}

	// One-shot: an online solver reset before every slot solves from
	// scratch (core.Solve's placement), and counts churn between slots.
	cfg := sim.DefaultConfig(g, cat, users, opts.Seed)
	cfg.DurationMinutes = duration
	cold := &churnAdapter{solver: core.NewOnlineSolver(core.DefaultConfig())}
	oneShot, err := sim.Run(cfg, cold)
	if err != nil {
		panic(fmt.Sprintf("ext_online one-shot: %v (completed %d slots)", err, partialSlots(oneShot)))
	}
	objSum := 0.0
	for _, s := range oneShot.Records {
		objSum += s.Objective
	}
	t.AddRow("one-shot", f3(oneShot.MeanDelay()), f1(objSum), itoa(cold.churn))

	cfg2 := sim.DefaultConfig(g, cat, users, opts.Seed)
	cfg2.DurationMinutes = duration
	onlineAlgo := sim.NewSoCLOnline(core.DefaultConfig())
	online, err := sim.Run(cfg2, onlineAlgo)
	if err != nil {
		panic(fmt.Sprintf("ext_online warm: %v (completed %d slots)", err, partialSlots(online)))
	}
	objSum2 := 0.0
	for _, s := range online.Records {
		objSum2 += s.Objective
	}
	t.AddRow("online-warm", f3(online.MeanDelay()), f1(objSum2), itoa(onlineAlgo.Churn))
	return t
}

// churnAdapter is one-shot SoCL as a sim.Algorithm that also counts
// placement churn: its online solver is reset before every slot, and a
// reset Step is a from-scratch solve.
type churnAdapter struct {
	solver *core.OnlineSolver
	slots  int
	churn  int
	prev   model.Placement
}

func (*churnAdapter) Name() string               { return "SoCL" }
func (*churnAdapter) Routing() model.RoutingMode { return model.RouteModeOptimal }
func (c *churnAdapter) Place(in *model.Instance) (model.Placement, error) {
	c.solver.Reset()
	sol, _, err := c.solver.Step(in)
	if err != nil {
		return model.Placement{}, err
	}
	if c.slots > 0 {
		a, r := model.PlacementDiff(c.prev, sol.Placement)
		c.churn += a + r
	}
	c.prev = sol.Placement.Clone()
	c.slots++
	return sol.Placement, nil
}
