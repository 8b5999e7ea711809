// Package sim is the testbed substitute for the paper's Kubernetes
// deployment (Section V-C): a time-slotted discrete-event simulator of a
// serverless edge cluster. Users move among edge nodes (random-waypoint over
// the topology), issue requests with stochastic dependency chains on a
// Poisson clock (mean ≈ 5 minutes), and at every slot the placement
// algorithm under test re-plans from the observed state — the paper's
// "one-shot decision-making". Per-request latencies are measured with the
// exact evaluator, so the algorithms are exercised through the identical
// decision path they would take against a real cluster.
//
// The package generates the trace (record.go) and adapts the algorithms; the
// slot loop itself is serve.Daemon in replay mode, which Run drives.
package sim

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Algorithm is a placement-and-routing policy under test. Routing returns
// the request-routing mode the algorithm pairs with its placements — the
// paper's algorithms are joint provisioning+routing schemes, so RP routes
// randomly, JDR greedily, and SoCL with optimized (exact DP) routing.
type Algorithm interface {
	Name() string
	// Place computes a provisioning decision for the instance observed at
	// the current slot.
	Place(in *model.Instance) (model.Placement, error)
	// Routing selects how this algorithm's placements are routed.
	Routing() model.RoutingMode
}

// SoCL adapts the core solver.
type SoCL struct{ Config core.Config }

// Name implements Algorithm.
func (SoCL) Name() string { return "SoCL" }

// Routing implements Algorithm: SoCL optimizes routing.
func (SoCL) Routing() model.RoutingMode { return model.RouteModeOptimal }

// Place implements Algorithm.
func (a SoCL) Place(in *model.Instance) (model.Placement, error) {
	sol, err := core.Solve(in, a.Config)
	if err != nil {
		return model.Placement{}, err
	}
	return sol.Placement, nil
}

// RP adapts the random-provisioning baseline.
type RP struct{ Seed int64 }

// Name implements Algorithm.
func (RP) Name() string { return "RP" }

// Routing implements Algorithm: RP routes requests randomly.
func (RP) Routing() model.RoutingMode { return model.RouteModeRandom }

// Place implements Algorithm.
func (a RP) Place(in *model.Instance) (model.Placement, error) {
	return baselines.RP(in, a.Seed), nil
}

// JDR adapts the joint-deployment-and-routing baseline.
type JDR struct{}

// Name implements Algorithm.
func (JDR) Name() string { return "JDR" }

// Routing implements Algorithm: JDR routes greedily to the nearest
// instance, ignoring chain dependencies (the paper's critique).
func (JDR) Routing() model.RoutingMode { return model.RouteModeGreedy }

// Place implements Algorithm.
func (JDR) Place(in *model.Instance) (model.Placement, error) {
	return baselines.JDR(in), nil
}

// GCOG adapts the greedy-combine baseline.
type GCOG struct{}

// Name implements Algorithm.
func (GCOG) Name() string { return "GC-OG" }

// Routing implements Algorithm: GC-OG's gradient uses the exact evaluator.
func (GCOG) Routing() model.RoutingMode { return model.RouteModeOptimal }

// Place implements Algorithm.
func (GCOG) Place(in *model.Instance) (model.Placement, error) {
	return baselines.GCOG(in).Placement, nil
}

// Config parameterizes a simulation run.
type Config struct {
	Graph   *topology.Graph
	Catalog *msvc.Catalog

	NumUsers         int
	SlotMinutes      float64 // re-planning interval (paper: 5 min)
	DurationMinutes  float64 // total simulated time (paper: 4 h = 240)
	MeanInterarrival float64 // mean minutes between a user's requests
	MoveProb         float64 // per-slot probability a user hops to a neighbor

	Lambda float64
	Budget float64

	Workload msvc.WorkloadConfig // data-volume ranges; NumUsers is ignored

	Seed int64

	// Faults, when non-nil, injects the schedule's node/link/storage faults
	// into the run (see internal/chaos); nil preserves the no-fault path
	// byte for byte. The schedule must be generated over this Config's Graph.
	Faults *chaos.Schedule
	// Policy selects the response to fault damage (ignored without Faults).
	Policy FaultPolicy
	// Cloud, when non-nil, gives requests whose services are missing a WAN
	// fallback instead of going unserved (model.ErrNoInstance discipline).
	Cloud *model.CloudConfig
}

// DefaultConfig mirrors the paper's 4-hour trace experiment. The testbed
// workload is user-facing: most data moves on the ingress/egress legs
// (user uploads and result downloads), with lighter inter-service state —
// so proximity to users, not instance co-location, decides latency, which
// is the regime the testbed figures (9, 10) probe.
func DefaultConfig(g *topology.Graph, cat *msvc.Catalog, users int, seed int64) Config {
	w := msvc.DefaultWorkloadConfig(0)
	w.DeadlineSlack = 0 // the trace experiment records latency, not SLOs
	w.EdgeDataMin, w.EdgeDataMax = 1, 15
	w.InDataMin, w.InDataMax = 5, 25
	w.OutDataMin, w.OutDataMax = 5, 25
	// λ = 0.05 makes the testbed latency-dominant: the paper's testbed
	// tracks user-perceived delay (its λ is unreported), and SoCL's storage
	// planning is explicitly designed to keep "more warm instances in the
	// nearby area" — which only manifests when latency outweighs the
	// per-instance deployment cost in the per-slot objective.
	return Config{
		Graph: g, Catalog: cat,
		NumUsers: users, SlotMinutes: 5, DurationMinutes: 240,
		MeanInterarrival: 5, MoveProb: 0.3,
		Lambda: 0.05, Budget: 8000,
		Workload: w,
		Seed:     seed,
	}
}

// Result is a full simulation run: the serving daemon's per-slot records and
// latency stream (serve.RunResult and its aggregate helpers), labelled with
// the algorithm that produced them.
type Result struct {
	Algorithm string
	serve.RunResult
}

// ReplayConfig maps a simulator configuration onto the daemon's replay mode:
// re-plan every epoch with algo, react with cfg's fault policy, route with
// the per-epoch seeds. Run builds its daemon from it, so a daemon built from
// it and fed EventStream(cfg) reproduces Run(cfg, algo) bitwise.
//
// Note algo is stateful for some algorithms (SoCLOnline): build a fresh one
// per daemon, exactly as for a fresh Run.
func ReplayConfig(cfg Config, algo Algorithm) serve.Config {
	pol := policyFor(cfg.Policy, algo)
	if cfg.Faults == nil {
		// Config.Policy is ignored without Faults: serve the plan as-is.
		pol = serve.NonePolicy{}
	}
	return serve.Config{
		Graph:       cfg.Graph,
		Catalog:     cfg.Catalog,
		Lambda:      cfg.Lambda,
		Budget:      cfg.Budget,
		Cloud:       cfg.Cloud,
		Mode:        algo.Routing(),
		RouteSeed:   stats.SplitSeed(cfg.Seed, "sim/route"),
		Planner:     algo.Place,
		PlannerName: algo.Name(),
		Policy:      pol,
		Replan:      true,
	}
}

// Run simulates algo over the configured horizon: it draws each slot's events
// (mobility, arrivals, departures, fault strikes) and feeds them to a
// serve.Daemon in replay mode, which owns the slot order — plan on the
// substrate as known, strike, re-home, apply the fault policy, evaluate (see
// serve.Daemon.Tick). A mid-run algorithm or fault-replay failure returns the
// partial *Result covering every completed slot alongside the error, so
// callers can diagnose how far the run got.
func Run(cfg Config, algo Algorithm) (*Result, error) {
	gen, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	d, err := serve.NewDaemon(ReplayConfig(cfg, algo))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res := &Result{Algorithm: algo.Name()}
	for slot := 0; slot < gen.numSlots; slot++ {
		evs, err := gen.next()
		if err == nil {
			d.Ingest(evs...)
			_, err = d.Tick()
		}
		if err != nil {
			res.RunResult = *d.Result()
			res.Records = res.Records[:slot] // drop the failing slot's half-filled record
			return res, err
		}
	}
	res.RunResult = *d.Result()
	return res, nil
}
