// Package repair is the incremental placement-repair engine: given a fault
// mask over the substrate (internal/chaos) and the placement that was serving
// before the faults, it restores service without a full re-solve. The repair
// pipeline is
//
//  1. damage classification — instances lost to crashed nodes
//     (Mask.MaskPlacement), nodes whose masked storage capacity the surviving
//     placement now violates (Eq. 6), and budget overruns (Eq. 5);
//  2. eviction — while some node over-fills its shrunk capacity, or the
//     deployment exceeds the budget, remove the instance whose removal leaves
//     the best repair score (ties to the lowest service/node, first-wins
//     under a strict ObjTol margin);
//  3. re-provision, in two phases. Restoration first: for each request the
//     damaged placement cannot serve at all, probe placing its missing chain
//     services together on one up node (a single tentative bundle, scored
//     and rolled back) and commit the best bundle that strictly improves the
//     repair score — single adds cannot cross the valley when a request
//     needs several services back at once. Then refinement: greedily add
//     single instances of the damaged services wherever the score strictly
//     improves, Algorithm-5 style. All candidates are filtered to up nodes
//     with storage and budget headroom on the masked substrate.
//
// Plain Eq. 3/8 objective comparison cannot drive this repair: one unserved
// request puts +Inf into the latency sum, every candidate ties at +Inf, and
// greedy improvement stalls. Candidates are therefore ordered by a
// lexicographic repair score — fewer unserved requests first, then the exact
// objective over the served remainder (see score).
//
// Requests whose services cannot be re-provisioned (no feasible node, budget
// exhausted) degrade exactly as the evaluator dictates: to the cloud when
// the instance has a cloud config (ErrNoInstance discipline), otherwise they
// are reported honestly as MissingInstances/Unroutable — repair never hides
// damage, it minimizes it.
//
// Scoring goes through the scorer seam. Run scores on a model.DeltaEvaluator
// bound to the masked instance — the caller's long-lived one when
// Config.Evaluator hands it over, else one built for the call — and pays
// incremental re-routing per removal probe and none per addition probe
// (DeltaEvaluator.ProbeAdd); the package's tests plug in a reference
// scorer that re-scores every probe with a scratch Instance.EvaluateRouted on
// a cloned placement — the full re-solve-routing reference. Both enumerate candidates identically and the
// delta engine's evaluations are documented bit-identical to scratch
// evaluation, so the two produce bitwise-identical repairs; the differential
// tests pin exactly that.
//
// A Result is stamped with the mask epoch it was computed at; once the mask
// moves (the next fault slot), the result is stale and repair must run
// again. Under the soclinvariants build tag every finished repair is
// re-checked against Eq. 4–6 on the masked substrate
// (invariant.CheckPostRepair).
package repair

import (
	"math"
	"slices"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/model"
)

// Config parameterizes one repair run.
type Config struct {
	// Mode is the routing mode repairs are scored under.
	Mode model.RoutingMode
	// Seed feeds RouteModeRandom's per-request streams (unused otherwise).
	Seed int64
	// Evaluator, when non-nil, is the caller's evaluator to score on in place
	// of one built for this call: the serving daemon keeps one bound across
	// epochs and hands it over here, so a repair re-routes only the requests
	// that changed since the previous epoch. It must be bound to the masked
	// instance, Mode and Seed of the call (Run panics otherwise); Run advances
	// it to the masked placement and leaves it at the repaired one. It decides
	// where the routes come from, never what they are — every Result is
	// bitwise the one a nil Evaluator gives — so it is not a tuning knob, and
	// the daemon overwrites it each epoch like Mode and Seed.
	Evaluator *model.DeltaEvaluator
}

// coldPenalty is the warm-preference surcharge for one candidate add: the
// delay the instance's cold-start model (Instance.ColdStart) charges when
// (svc, node) is cold, 0 when it is warm or no model is set. Charging it on
// the probe score's objective makes both re-provision phases warm-aware: two
// otherwise-tied candidates resolve toward the already-warm node, and a cold
// candidate must beat a warm one by more than the cold-start price. It is
// computed outside the scorer, so the scratch reference scorer stays
// equivalent (pinned by test).
func coldPenalty(cs *model.ColdStartModel, svc, node int) float64 {
	if cs == nil || !cs.IsCold(svc, node) {
		return 0
	}
	return cs.Delay
}

// coldPenaltyBundle sums the surcharge over a restoration bundle.
func coldPenaltyBundle(cs *model.ColdStartModel, adds []chaos.Inst) float64 {
	pen := 0.0
	for _, a := range adds {
		pen += coldPenalty(cs, a.Svc, a.Node)
	}
	return pen
}

// Damage is the classification of what the active faults broke.
type Damage struct {
	// Lost are the instances that sat on crashed nodes, ascending (svc, node).
	Lost []chaos.Inst
	// StorageViolated are nodes whose masked capacity the surviving placement
	// exceeds (Eq. 6), ascending.
	StorageViolated []int
	// OverBudget reports an Eq. 5 violation of the surviving placement
	// (possible only when the pre-fault placement already exceeded budget,
	// since losing instances never raises cost).
	OverBudget bool
}

// Result is one finished repair.
type Result struct {
	Damage Damage
	// Placement is the repaired placement (valid on the masked substrate and,
	// by construction, only mutated away from the pre-fault placement on
	// crashed/evicted/added coordinates). A repair that lost, evicted and
	// added nothing returns the pre-fault placement itself, not a copy, so
	// model.SamePlacement tells a caller that its placement did not move; a
	// caller that goes on to mutate the result clones it first.
	Placement model.Placement
	// Before summarizes the exact evaluation of the surviving (masked,
	// unrepaired) placement on the masked substrate; After that of the
	// repaired one.
	Before, After model.EvalSummary
	// Evaluator is the evaluator the repair scored on, left at the repaired
	// placement: Config.Evaluator, or the one built for the call. A caller
	// that reads the repaired evaluation request by request, or needs it
	// whole, reads it here (its Eval), until it next mutates the evaluator.
	Evaluator *model.DeltaEvaluator
	// Evicted lists instances removed to restore Eq. 5/6; Added lists
	// re-provisioned instances, in commit order.
	Evicted, Added []chaos.Inst
	// RolledBack counts tentatively-applied re-provision candidates that were
	// scored and reverted rather than committed (the Algorithm-5 roll-backs).
	RolledBack int
	// Epoch is the mask epoch the repair was computed at; the result is
	// stale as soon as Mask.Epoch() moves past it.
	Epoch uint64
}

// score is the lexicographic repair objective: first minimize the requests
// the placement cannot serve at all (the +Inf latency classes — missing
// without a cloud, and unroutable), then the exact Eq. 3/8 objective over
// the served remainder. It is derived only from summary fields the delta
// engine documents bit-identical to scratch evaluation, so both scoring
// paths compute bitwise-identical scores.
type score struct {
	unserved int
	obj      float64
}

// scoreOf derives the repair score from an exact evaluation's summary, whose
// served latency sum runs in request-index order.
func scoreOf(in *model.Instance, s model.EvalSummary) score {
	return score{unserved: s.Unserved(), obj: in.Objective(s.Cost, s.ServedLatencySum)}
}

// scoreProbe is scoreOf over an addition probe, which carries the same
// counts and the same index-order served sum.
func scoreProbe(in *model.Instance, pr model.AddProbe) score {
	return score{unserved: pr.MissingInstances + pr.Unroutable, obj: in.Objective(pr.Cost, pr.ServedLatencySum)}
}

// betterThan reports a strict lexicographic improvement over b: fewer
// unserved requests, or equally many and a served-part objective better by
// more than ObjTol (the strict first-wins margin the rest of the solver
// stack uses).
func (a score) betterThan(b score) bool {
	if a.unserved != b.unserved {
		return a.unserved < b.unserved
	}
	return a.obj < b.obj-model.ObjTol
}

// Better reports whether the evaluation summarized by a strictly beats b's
// in the repair score's order. It is the one order the engine optimizes,
// exported so a policy that chooses between a repair and a re-solve ranks
// them as the engine would.
func Better(in *model.Instance, a, b model.EvalSummary) bool {
	return scoreOf(in, a).betterThan(scoreOf(in, b))
}

// scorer is the seam between the repair phases and how a candidate is
// scored. All methods are exact (Eq. 1–6) and — across deltaScorer and the
// tests' scratch-evaluation reference — bitwise identical, which is what
// makes the reference a true reference and not an approximation.
type scorer interface {
	// view reads the exact evaluation of the live placement, until the next
	// probe or commit.
	view() model.EvalView
	// probeRemoval scores the placement with (svc, node) cleared, without
	// mutating it.
	probeRemoval(svc, node int) score
	// probeAdd scores the placement with (svc, node) set, without mutating
	// it (tentative apply + roll-back on the delta path); the flag reports
	// an Eq. 5 violation.
	probeAdd(svc, node int) (score, bool)
	// probeBundle scores the placement with every listed instance — a
	// restoration bundle, all on one node — set, without mutating it.
	probeBundle(adds []chaos.Inst) (score, bool)
	// set commits a mutation.
	set(svc, node int, val bool)
	// placement returns the live placement (aliased; read-only for callers).
	placement() model.Placement
}

// deltaScorer is the incremental path: one DeltaEvaluator bound to the
// masked instance for the whole repair. A removal probe tentatively applies,
// evaluates and reverts, paying only incremental re-routing; an addition
// probe — hundreds per crash — asks the evaluator's ProbeAdd, which extends
// memoized routing rows instead of re-routing every request of the service.
type deltaScorer struct {
	in   *model.Instance
	d    *model.DeltaEvaluator
	svcs []int // probeBundle's argument buffer
}

func (s *deltaScorer) view() model.EvalView { return s.d }
func (s *deltaScorer) probeRemoval(i, k int) score {
	dl := s.d.Apply(i, k, false)
	sc := scoreOf(s.in, s.d.Summary())
	s.d.Revert(dl)
	return sc
}
func (s *deltaScorer) probeAdd(i, k int) (score, bool) {
	pr := s.d.ProbeAdd(k, i)
	return scoreProbe(s.in, pr), pr.OverBudget
}
func (s *deltaScorer) probeBundle(adds []chaos.Inst) (score, bool) {
	s.svcs = s.svcs[:0]
	for _, a := range adds {
		if a.Node != adds[0].Node {
			panic("repair: a restoration bundle spans nodes")
		}
		s.svcs = append(s.svcs, a.Svc)
	}
	pr := s.d.ProbeAdd(adds[0].Node, s.svcs...)
	return scoreProbe(s.in, pr), pr.OverBudget
}
func (s *deltaScorer) set(i, k int, val bool)     { s.d.Apply(i, k, val) }
func (s *deltaScorer) placement() model.Placement { return s.d.Placement() }

// Classify reports the damage the mask's active faults inflict on p without
// repairing anything; the masked placement (lost instances cleared) is
// returned alongside — p itself when the mask removes none of its instances,
// so a caller that goes on to mutate it clones it first. in must be built on
// the mask's base graph.
func Classify(in *model.Instance, m *chaos.Mask, p model.Placement) (Damage, model.Placement) {
	return classify(m.Instance(in), m, p)
}

// classify is Classify on the masked instance.
func classify(min *model.Instance, m *chaos.Mask, p model.Placement) (Damage, model.Placement) {
	masked := p
	var dmg Damage
	if loses(min, m, p) {
		masked, dmg.Lost = m.MaskPlacement(p)
	}
	for k := 0; k < min.V(); k++ {
		if min.StorageUsed(masked, k) > min.Graph.Node(k).Storage+model.FeasTol {
			dmg.StorageViolated = append(dmg.StorageViolated, k)
		}
	}
	dmg.OverBudget = !min.CheckBudget(masked)
	return dmg, masked
}

// loses reports whether p has an instance on a node the mask holds down.
func loses(min *model.Instance, m *chaos.Mask, p model.Placement) bool {
	for k := range min.V() {
		if m.NodeUp(k) {
			continue
		}
		for i := range p.X {
			if p.X[i][k] {
				return true
			}
		}
	}
	return false
}

// Run repairs p against the mask's current fault state and returns the
// finished Result. p itself is never mutated: the evaluator scores on a
// placement of its own. in must be built on the mask's base graph
// (Mask.Instance panics otherwise).
func Run(in *model.Instance, m *chaos.Mask, p model.Placement, cfg Config) *Result {
	min := m.Instance(in)
	dmg, masked := classify(min, m, p)
	de := cfg.Evaluator
	if de == nil {
		own := masked
		if len(dmg.Lost) == 0 {
			own = p.Clone() // masked is p itself, which the evaluator would mutate
		}
		de = model.NewDeltaEvaluator(min, own, cfg.Mode, cfg.Seed)
	} else {
		if !de.BoundTo(min, cfg.Mode, cfg.Seed) {
			panic("repair: Config.Evaluator is not bound to the masked instance, mode and seed of this Run")
		}
		de.AdvanceTo(masked)
	}
	res := repairWith(min, m, dmg, &deltaScorer{in: min, d: de})
	res.Evaluator = de
	if len(res.Added)+len(res.Evicted) == 0 {
		// Nothing moved past the masked placement: p itself when nothing was
		// lost, else the mask's copy.
		res.Placement = masked
	} else if cfg.Evaluator != nil {
		// The evaluator outlives the call and goes on mutating the placement
		// it is bound to; the caller gets a copy.
		res.Placement = res.Placement.Clone()
	}
	return res
}

// repairWith runs the repair phases on the masked instance, scoring through
// s (bound to the masked placement). dmg's storage and budget verdicts,
// taken on that placement, are the evictions' first checks.
func repairWith(min *model.Instance, m *chaos.Mask, dmg Damage, s scorer) *Result {
	res := &Result{Damage: dmg, Epoch: m.Epoch()}
	v := s.view()
	res.Before = v.Summary()
	damaged := damagedServices(min, v, res.Before, dmg)

	evictStorage(min, s, res, dmg.StorageViolated)
	over := dmg.OverBudget
	if len(res.Evicted) > 0 {
		over = !min.CheckBudget(s.placement())
	}
	evictBudget(min, s, res, over)
	reprovision(min, m, s, res, damaged)

	v = s.view()
	res.After = v.Summary()
	res.Placement = s.placement()
	if invariant.Enabled {
		invariant.CheckPostRepair(min, v.Eval(), "repair.Run")
	}
	return res
}

// evictStorage clears Eq. 6 violations on the masked substrate: while some
// node over-fills its (possibly shrunk) capacity, remove the instance on it
// whose removal leaves the best repair score. CheckStorage returns the
// first violating node, services are probed ascending, and a candidate
// replaces the incumbent only when strictly better — all first-wins
// deterministic. violated, the ascending nodes the placement over-fills on
// entry, stands in for the first check.
func evictStorage(min *model.Instance, s scorer, res *Result, violated []int) {
	if len(violated) == 0 {
		return
	}
	for k := violated[0]; k >= 0; k = min.CheckStorage(s.placement()) {
		cur := s.placement()
		var best score
		bestSvc := -1
		for i := range cur.X {
			if !cur.Has(i, k) {
				continue
			}
			sc := s.probeRemoval(i, k)
			if bestSvc < 0 || sc.betterThan(best) {
				best, bestSvc = sc, i
			}
		}
		if bestSvc < 0 {
			return // unreachable: a violating node stores at least one instance
		}
		s.set(bestSvc, k, false)
		res.Evicted = append(res.Evicted, chaos.Inst{Svc: bestSvc, Node: k})
	}
}

// evictBudget clears Eq. 5 violations: while the deployment exceeds the
// budget, remove the globally least-damaging instance (ascending svc, node;
// strict score margin, first-wins). over, the verdict on the placement on
// entry, stands in for the first check.
func evictBudget(min *model.Instance, s scorer, res *Result, over bool) {
	for ; over; over = !min.CheckBudget(s.placement()) {
		cur := s.placement()
		var best score
		bestSvc, bestNode := -1, -1
		for i := range cur.X {
			for k, on := range cur.X[i] {
				if !on {
					continue
				}
				sc := s.probeRemoval(i, k)
				if bestSvc < 0 || sc.betterThan(best) {
					best, bestSvc, bestNode = sc, i, k
				}
			}
		}
		if bestSvc < 0 {
			return // empty placement cannot exceed a non-negative budget
		}
		s.set(bestSvc, bestNode, false)
		res.Evicted = append(res.Evicted, chaos.Inst{Svc: bestSvc, Node: bestNode})
	}
}

// reprovision re-adds instances in two phases.
//
// Phase 1, restoration: while some request is unserved (+Inf latency), walk
// the unserved requests ascending and, for each, probe every up node's
// restoration bundle — the request's chain services not already on that
// node, provisioned together (storage and budget prefiltered on the masked
// substrate). The first request with a strictly score-improving bundle gets
// its best bundle committed, then the placement is re-evaluated (one bundle
// often serves several requests). Bundles are what let repair heal network
// partitions: a request that needs three services back will never be fixed
// by single adds, each of which looks like pure cost.
//
// Phase 2, refinement: greedily add single instances of the damaged
// services — lost to a crash, given up to eviction, or in the chain of a
// request the pre-repair evaluation could not edge-serve — wherever the
// repair score strictly improves, Algorithm-5 style: every feasible
// candidate is tentatively applied, scored, rolled back, and only the
// round's best strictly-improving candidate is committed.
//
// Both phases terminate: every commit strictly improves the lexicographic
// repair score, which is bounded below.
//
// damaged holds the services damagedServices derived before eviction (nil:
// none); the evicted ones join them here.
func reprovision(min *model.Instance, m *chaos.Mask, s scorer, res *Result, damaged []bool) {
	probes, commits := 0, 0
	defer func() { res.RolledBack = probes - commits }()

	// Phase 1's buffers: the storage each node uses, computed once a round
	// (the placement moves only on a commit, which ends the round), the
	// bundle being probed, and a copy of the best one so far.
	var used []float64
	var bundle, bestBundle []chaos.Inst
	var unserved []int
	for {
		v := s.view()
		curScore := scoreOf(min, v.Summary())
		if curScore.unserved == 0 {
			break
		}
		// The unserved requests, read before the probes move the view.
		unserved = unserved[:0]
		for h := range min.Workload.Requests {
			if math.IsInf(v.Latency(h), 1) {
				unserved = append(unserved, h)
			}
		}
		cur := s.placement()
		curCost := min.DeployCost(cur)
		if used == nil {
			used = make([]float64, min.V())
		}
		for k := range used {
			if m.NodeUp(k) {
				used[k] = min.StorageUsed(cur, k)
			}
		}
		committed := false
		for _, h := range unserved {
			best := curScore
			bestNode := -1
			for k := 0; k < min.V(); k++ {
				if !m.NodeUp(k) {
					continue
				}
				bundle = restoreBundle(bundle[:0], min, cur, h, k, used[k], curCost)
				if len(bundle) == 0 {
					continue
				}
				sc, over := s.probeBundle(bundle)
				probes++
				if over {
					continue
				}
				sc.obj += coldPenaltyBundle(min.ColdStart, bundle)
				if sc.betterThan(best) {
					best, bestNode = sc, k
					bestBundle = append(bestBundle[:0], bundle...)
				}
			}
			if bestNode >= 0 {
				for _, a := range bestBundle {
					s.set(a.Svc, a.Node, true)
				}
				res.Added = append(res.Added, bestBundle...)
				commits++
				committed = true
				break // re-evaluate: the bundle may have served other requests too
			}
		}
		if !committed {
			break // remaining unserved requests have no feasible restoration
		}
	}

	for _, e := range res.Evicted {
		if damaged == nil {
			damaged = make([]bool, min.M())
		}
		damaged[e.Svc] = true
	}
	if !slices.Contains(damaged, true) {
		return // phase 2 has nothing to refine
	}
	for {
		curScore := scoreOf(min, s.view().Summary())
		cur := s.placement()
		curCost := min.DeployCost(cur)
		best := curScore
		bestSvc, bestNode := -1, -1
		for i := 0; i < min.M(); i++ {
			if !damaged[i] {
				continue
			}
			svc := min.Workload.Catalog.Service(i)
			if curCost+svc.DeployCost > min.Budget+model.FeasTol {
				continue // no budget headroom for this service
			}
			for k := 0; k < min.V(); k++ {
				if !m.NodeUp(k) || cur.Has(i, k) {
					continue
				}
				if min.StorageUsed(cur, k)+svc.Storage > min.Graph.Node(k).Storage+model.FeasTol {
					continue // no storage headroom on the masked capacity
				}
				sc, over := s.probeAdd(i, k)
				probes++
				if over {
					continue
				}
				sc.obj += coldPenalty(min.ColdStart, i, k)
				if sc.betterThan(best) {
					best, bestSvc, bestNode = sc, i, k
				}
			}
		}
		if bestSvc < 0 {
			break
		}
		s.set(bestSvc, bestNode, true)
		res.Added = append(res.Added, chaos.Inst{Svc: bestSvc, Node: bestNode})
		commits++
	}
}

// damagedServices marks the services phase 2 of reprovision refines: those
// with an instance lost to a crash, and those in the chain of a request the
// pre-repair evaluation v, summarized by s, could not edge-serve — none when
// s counts no request missing, unroutable or in the cloud. With nothing
// lost either, it returns nil.
func damagedServices(min *model.Instance, v model.EvalView, s model.EvalSummary, dmg Damage) []bool {
	if len(dmg.Lost) == 0 && s.Unserved()+s.CloudServed == 0 {
		return nil
	}
	damaged := make([]bool, min.M())
	for _, li := range dmg.Lost {
		damaged[li.Svc] = true
	}
	if s.Unserved()+s.CloudServed == 0 {
		return damaged
	}
	for h := range min.Workload.Requests {
		if v.RouteNodes(h) != nil && !math.IsInf(v.Latency(h), 1) {
			continue // edge-served pre-repair: its services are intact
		}
		for _, svc := range min.Workload.Requests[h].Chain {
			damaged[svc] = true
		}
	}
	return damaged
}

// restoreBundle appends to adds (empty on entry) the phase-1 restoration
// candidate for request h on node k: every chain service not already placed
// on k, provisioned together. used is the storage k uses under cur. The
// returned slice is empty when the chain is already fully present on k, or
// when k lacks the storage (masked capacity) or the deployment lacks the
// budget headroom for the whole bundle.
func restoreBundle(adds []chaos.Inst, min *model.Instance, cur model.Placement, h, k int, used, curCost float64) []chaos.Inst {
	need := used
	cost := curCost
chain:
	for _, i := range min.Workload.Requests[h].Chain {
		if cur.Has(i, k) {
			continue
		}
		for _, a := range adds {
			if a.Svc == i {
				continue chain // chains may repeat a service
			}
		}
		svc := min.Workload.Catalog.Service(i)
		need += svc.Storage
		cost += svc.DeployCost
		adds = append(adds, chaos.Inst{Svc: i, Node: k})
	}
	if need > min.Graph.Node(k).Storage+model.FeasTol || cost > min.Budget+model.FeasTol {
		return adds[:0]
	}
	return adds
}
