package transport

import (
	"repro/internal/model"
	"repro/internal/serve"
)

// DefaultResolveCost is the work-unit charge of a full re-solve relative to
// single repair moves (adds/evicts/rolled-back probes cost 1 each). Both the
// breaker's CostBudget and the engine's admission-capacity debt are
// denominated in these units.
const DefaultResolveCost = 50

// LadderConfig prices the graceful-degradation ladder a tripped breaker
// falls down: serve from the stale placement; if that leaves any request
// unserved, offload it to a pay-per-use cloud whose functions start cold
// (model.CloudConfig.ColdStart); requests that not even the cloud can serve
// stay shed.
type LadderConfig struct {
	// CloudTransfer, CloudCompute and CloudColdStart price the offload
	// rung as model.CloudConfig's TransferCost, Compute and ColdStart:
	// every degraded-path offload cold-starts its cloud function.
	// CloudCompute <= 0 disables the rung.
	CloudTransfer  float64
	CloudCompute   float64
	CloudColdStart float64
}

func (l LadderConfig) hasCloud() bool { return l.CloudCompute > 0 }

// GuardedPolicy decorates a reaction policy with the circuit breaker and the
// degradation ladder. While the breaker admits reactions it is transparent:
// the inner policy serves and its cost/outcome trains the breaker. When the
// breaker is open — or the inner policy errors — the epoch is served from
// the ladder instead of failing the daemon, which is the whole point: under
// overload the control plane stops paying reaction costs, the admission
// capacity it was debiting recovers, and the frontend sheds less.
type GuardedPolicy struct {
	Inner   serve.Policy
	Breaker *Breaker
	Ladder  LadderConfig

	// Telemetry.
	DegradedEpochs int // epochs served by the ladder
	OffloadEpochs  int // ladder epochs where the cloud rung engaged
	InnerFailures  int // inner policy errors absorbed
	LastCost       int // work cost of the most recent reaction (0 on ladder)
}

// Name implements serve.Policy.
func (g *GuardedPolicy) Name() string { return "guarded(" + g.Inner.Name() + ")" }

// Serve implements serve.Policy.
func (g *GuardedPolicy) Serve(ctx *serve.EpochContext) (serve.Outcome, error) {
	if g.Breaker.Allow() {
		out, err := g.Inner.Serve(ctx)
		if err == nil {
			g.LastCost = ReactionCost(&out)
			g.Breaker.Record(g.LastCost, false)
			return out, nil
		}
		// The inner reaction failed: train the breaker and fall to the
		// ladder instead of failing the epoch.
		g.InnerFailures++
		g.Breaker.Record(0, true)
	}
	g.LastCost = 0
	return g.degrade(ctx), nil
}

// degrade serves the epoch from the ladder: stale placement first, cloud
// offload if the stale serve leaves any request unserved.
func (g *GuardedPolicy) degrade(ctx *serve.EpochContext) serve.Outcome {
	g.DegradedEpochs++
	out, _ := serve.NonePolicy{}.Serve(ctx) // rung 1; NonePolicy cannot fail
	if !g.Ladder.hasCloud() || out.Summary.Unserved() == 0 {
		return out
	}
	// Rung 2: re-evaluate the stale placement with the ladder's cloud
	// fallback, cold start included, priced in.
	cp := *ctx.In
	cp.Cloud = &model.CloudConfig{
		TransferCost: g.Ladder.CloudTransfer,
		Compute:      g.Ladder.CloudCompute,
		ColdStart:    g.Ladder.CloudColdStart,
	}
	ev := ctx.Mask.Instance(&cp).EvaluateRouted(out.Placement, ctx.Mode, ctx.Seed)
	if ev.Unserved() < out.Summary.Unserved() {
		out.View, out.Summary = ev, ev.Summary()
		g.OffloadEpochs++
	}
	return out
}

// ReactionCost is the deterministic work charge of one reaction outcome.
func ReactionCost(out *serve.Outcome) int {
	return reactionCost(out.Resolved, len(out.Added), len(out.Evicted), out.RolledBack)
}

// recordCost is ReactionCost read off a finished epoch's record — the debt
// the engine charges against the next epoch's admission capacity. A steady
// delta-evaluator epoch ran no policy, so it records no change and costs
// nothing.
func recordCost(rec *serve.EpochRecord) int {
	return reactionCost(rec.Resolved, rec.Adds, rec.Evicts, rec.RolledBack)
}

// reactionCost is the charge both read: a full re-solve costs
// DefaultResolveCost units; an incremental repair costs one unit per committed
// add, per eviction, and per scored-then-reverted candidate.
func reactionCost(resolved bool, adds, evicts, rolledBack int) int {
	if resolved {
		return DefaultResolveCost
	}
	return adds + evicts + rolledBack
}
