package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/repair"
	"repro/internal/topology"
)

// EpochContext is one epoch's reaction input: the substrate as faulted, the
// workload as currently admitted, and the placement that was planned before
// the epoch's damage struck. The daemon's event loop builds one per reacting
// epoch and dispatches it through the configured Policy.
type EpochContext struct {
	// In is the epoch's instance on the *base* graph (repair and the mask
	// derive masked views themselves), carrying the epoch's live requests.
	// It is valid for the epoch only: in serve mode its workload is the
	// evaluator's own, which later epochs edit in place.
	In *model.Instance
	// Mask is the accumulated substrate fault state.
	Mask *chaos.Mask
	// Planned is the placement meeting this epoch — possibly stale relative
	// to the damage. A policy never writes it; an outcome that serves Planned
	// itself keeps it unmoved (repair.Result.Placement states the contract).
	Planned model.Placement
	// Mode and Seed select request routing (Seed feeds RouteModeRandom).
	Mode model.RoutingMode
	Seed int64
	// Evaluator is the daemon's long-lived evaluator, which a repair scores
	// on (repair.Config.Evaluator); nil in replay mode, whose requests live
	// one epoch.
	Evaluator *model.DeltaEvaluator
	// Resolve recomputes a placement from scratch on the masked instance it
	// is handed. Required by ResolvePolicy and AutoPolicy escalation.
	Resolve func(*model.Instance) (model.Placement, error)
	// PlannerName labels Resolve in error messages.
	PlannerName string
}

// Outcome reports what actually served an epoch.
type Outcome struct {
	// Placement is the placement that served (on the masked substrate).
	Placement model.Placement
	// View reads its exact evaluation on the masked substrate: a scratch
	// *model.Evaluation, or the evaluator a repair scored on, left at
	// Placement (repair.Result.Evaluator). Summary is that evaluation's
	// summary, which a policy ranks and gates outcomes on.
	View    model.EvalView
	Summary model.EvalSummary
	// ReactTime is the wall-clock cost of the reaction (repair or re-solve).
	ReactTime time.Duration
	// Added and Evicted list repair's placement changes in commit order.
	Added, Evicted []chaos.Inst
	// RolledBack counts repair candidates scored and reverted.
	RolledBack int
	// Resolved reports that a full re-solve produced the placement.
	Resolved bool
}

// Policy decides how a stale placement meets a damaged (or merely busier)
// substrate each epoch.
type Policy interface {
	Name() string
	Serve(ctx *EpochContext) (Outcome, error)
}

// NonePolicy serves whatever survived: instances on crashed nodes are gone
// and their requests degrade to the cloud or go unserved. The no-repair
// lower bound (sim.PolicyNone).
type NonePolicy struct{}

// Name implements Policy.
func (NonePolicy) Name() string { return "none" }

// Serve implements Policy.
func (NonePolicy) Serve(ctx *EpochContext) (Outcome, error) {
	masked, _ := ctx.Mask.MaskPlacement(ctx.Planned)
	ev := ctx.Mask.Instance(ctx.In).EvaluateRouted(masked, ctx.Mode, ctx.Seed)
	return Outcome{Placement: masked, View: ev, Summary: ev.Summary()}, nil
}

// RepairPolicy runs the incremental repair engine on the stale placement:
// re-route, evict to restore feasibility, greedily re-provision
// (sim.PolicyRepair, and the serve-mode daemon's per-epoch reaction).
type RepairPolicy struct {
	// Run, when non-nil, replaces the direct repair.Run call. This is the
	// seam through which a warm-started online solver both performs the
	// repair and adopts its result as the next slot's warm state
	// (core.OnlineSolver.Repair); nil runs the engine standalone. The
	// Result's Evaluator serves the outcome's reads, so it must be left at
	// the repaired placement, as repair.Run leaves it.
	Run func(in *model.Instance, m *chaos.Mask, p model.Placement, cfg repair.Config) (*repair.Result, error)
}

// Name implements Policy.
func (RepairPolicy) Name() string { return "repair" }

// Serve implements Policy.
func (p RepairPolicy) Serve(ctx *EpochContext) (Outcome, error) {
	rcfg := repair.Config{Mode: ctx.Mode, Seed: ctx.Seed, Evaluator: ctx.Evaluator}
	//socllint:ignore detrand wall-clock reaction time is reported, never branched on
	t0 := time.Now()
	var res *repair.Result
	var err error
	if p.Run != nil {
		res, err = p.Run(ctx.In, ctx.Mask, ctx.Planned, rcfg)
	} else {
		res = repair.Run(ctx.In, ctx.Mask, ctx.Planned, rcfg)
	}
	//socllint:ignore detrand wall-clock reaction time is reported, never branched on
	rt := time.Since(t0)
	if err != nil {
		return Outcome{}, fmt.Errorf("repair failed: %w", err)
	}
	if res.Evaluator == nil {
		return Outcome{}, fmt.Errorf("repair result carries no evaluator")
	}
	return Outcome{
		Placement:  res.Placement,
		View:       res.Evaluator,
		Summary:    res.After,
		ReactTime:  rt,
		Added:      res.Added,
		Evicted:    res.Evicted,
		RolledBack: res.RolledBack,
	}, nil
}

// ResolvePolicy re-runs the full placement algorithm on the post-fault
// masked substrate: the expensive reference an incremental repair competes
// with (sim.PolicyResolve).
type ResolvePolicy struct{}

// Name implements Policy.
func (ResolvePolicy) Name() string { return "resolve" }

// Serve implements Policy.
func (ResolvePolicy) Serve(ctx *EpochContext) (Outcome, error) {
	mi := ctx.Mask.Instance(ctx.In)
	//socllint:ignore detrand wall-clock reaction time is reported, never branched on
	t0 := time.Now()
	p2, err := ctx.Resolve(mi)
	//socllint:ignore detrand wall-clock reaction time is reported, never branched on
	rt := time.Since(t0)
	if err != nil {
		return Outcome{}, fmt.Errorf("%s re-solve failed: %w", ctx.PlannerName, err)
	}
	ev := mi.EvaluateRouted(p2, ctx.Mode, ctx.Seed)
	return Outcome{Placement: p2, View: ev, Summary: ev.Summary(), ReactTime: rt, Resolved: true}, nil
}

// AutoPolicy is the daemon's default reaction: always repair incrementally,
// and escalate to a full re-solve only when the post-repair score still
// leaves more than Threshold of the epoch's requests unserved. The re-solve
// outcome is adopted only if it beats the repair under the repair engine's
// own ⟨unserved, served-part objective⟩ order (repair.Better), so the daemon
// never serves worse for having escalated. The gate and the ranking read the
// outcomes' summaries: only an escalation materializes an evaluation, the
// re-solve's.
type AutoPolicy struct {
	// Threshold is the tolerated post-repair unserved fraction in (0,1];
	// a negative value disables escalation entirely. Zero escalates on any
	// unserved request.
	Threshold float64
	// Repair performs the incremental round (its Run seam is honored).
	Repair RepairPolicy
}

// Name implements Policy.
func (AutoPolicy) Name() string { return "auto" }

// Serve implements Policy.
func (p AutoPolicy) Serve(ctx *EpochContext) (Outcome, error) {
	out, err := p.Repair.Serve(ctx)
	if err != nil || p.Threshold < 0 || ctx.Resolve == nil {
		return out, err
	}
	n := len(ctx.In.Workload.Requests)
	if n == 0 || float64(out.Summary.Unserved()) <= p.Threshold*float64(n) {
		return out, nil
	}
	rout, rerr := ResolvePolicy{}.Serve(ctx)
	if rerr != nil {
		// The repair outcome still serves; escalation failure is not fatal.
		return out, nil
	}
	rout.ReactTime += out.ReactTime
	if repair.Better(ctx.In, rout.Summary, out.Summary) {
		return rout, nil
	}
	out.ReactTime = rout.ReactTime
	return out, nil
}

// countDegraded counts edge-served requests in v that completed slower than
// the no-fault reference — the planned placement evaluated on the pristine
// base-graph instance with the same homes.
func countDegraded(in *model.Instance, planned model.Placement, v model.EvalView, mode model.RoutingMode, seed int64) int {
	ref := in.EvaluateRouted(planned, mode, seed)
	degraded := 0
	for h := range ref.Latencies {
		lat := v.Latency(h)
		if v.RouteNodes(h) == nil || math.IsInf(lat, 1) {
			continue
		}
		if lat > ref.Latencies[h]+model.FeasTol {
			degraded++
		}
	}
	return degraded
}

// Relocator returns the deterministic re-homing rule for displaced users and
// requests: a node maps to itself while up, otherwise to the nearest up node
// by base-graph path cost (first minimum in ascending node order; lowest-ID
// up node if no finite path; the node itself if nothing is up). Results are
// memoized per returned closure, so build one per epoch.
func Relocator(m *chaos.Mask, g *topology.Graph) func(int) int {
	target := make([]int, g.N())
	for k := range target {
		target[k] = -1
	}
	return func(k int) int {
		if m.NodeUp(k) {
			return k
		}
		if target[k] >= 0 {
			return target[k]
		}
		best, bestCost := -1, math.Inf(1)
		for q := 0; q < g.N(); q++ {
			if !m.NodeUp(q) {
				continue
			}
			if c := g.PathCost(k, q); best < 0 || c < bestCost {
				best, bestCost = q, c
			}
		}
		if best < 0 {
			best = k // no node is up; keep the home (the mask floor prevents this)
		}
		target[k] = best
		return best
	}
}

// rehomeRequests moves every request homed on a down node to the nearest up
// node under Relocator's rule, appending the indices of the requests it
// moved to moved.
func rehomeRequests(m *chaos.Mask, g *topology.Graph, reqs []msvc.Request, moved []int) []int {
	if m.Pristine() {
		return moved
	}
	relocate := Relocator(m, g)
	for i := range reqs {
		if nh := relocate(reqs[i].Home); nh != reqs[i].Home {
			reqs[i].Home = nh
			moved = append(moved, i)
		}
	}
	return moved
}
