// Package baselines implements the three comparison algorithms of the SoCL
// paper's evaluation (Section V):
//
//   - RP (Random Provisioning): deploys instances at random sites until the
//     budget is exhausted — unstructured, cost-blind, the paper's weakest
//     baseline.
//   - JDR (Joint Deployment and Routing, after Peng et al. [11]): splits
//     microservices into single-user and multi-user groups; single-user
//     services deploy next to their one user, multi-user services deploy
//     redundantly on the highest-capacity servers. Latency-driven,
//     cost-oblivious.
//   - GC-OG (Greedy Combine with Objective Gradient): starts from full
//     coverage of all demand sites and repeatedly applies the single
//     instance-removal with the best exact-objective improvement — accurate
//     but with the exhaustive per-round search whose cost the paper
//     highlights.
//
// All baselines guarantee at least one instance per used service and
// respect the storage constraint; like SoCL they are scored by the shared
// exact evaluator (model.Evaluate).
package baselines

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/stats"
)

// RP builds a random provisioning: one random feasible site per used
// service first (continuity), then random additional instances until the
// budget or storage is exhausted. All randomness derives from seed.
func RP(in *model.Instance, seed int64) model.Placement {
	r := stats.NewRand(stats.SplitSeed(seed, "baseline/rp"))
	p := model.NewPlacement(in.M(), in.V())
	cat := in.Workload.Catalog
	cost := 0.0

	fits := func(svc, k int) bool {
		return !p.Has(svc, k) &&
			in.StorageUsed(p, k)+cat.Service(svc).Storage <= in.Graph.Node(k).Storage+model.FeasTol &&
			cost+cat.Service(svc).DeployCost <= in.Budget+model.FeasTol
	}

	// Continuity pass.
	used := in.Workload.ServicesUsed()
	for _, svc := range used {
		perm := r.Perm(in.V())
		for _, k := range perm {
			if fits(svc, k) {
				p.Set(svc, k, true)
				cost += cat.Service(svc).DeployCost
				break
			}
		}
	}
	// Random fill: draw (service, node) pairs until a full sweep fails.
	type pair struct{ svc, k int }
	var all []pair
	for _, svc := range used {
		for k := 0; k < in.V(); k++ {
			all = append(all, pair{svc, k})
		}
	}
	stats.Shuffle(r, all)
	for _, pr := range all {
		if fits(pr.svc, pr.k) {
			p.Set(pr.svc, pr.k, true)
			cost += cat.Service(pr.svc).DeployCost
		}
	}
	return p
}

// JDR builds the joint-deployment-and-routing baseline placement:
// single-user services deploy at (or nearest to) their user's home; multi-
// user services deploy on the highest-capacity servers, one instance per
// demand node up to the budget.
func JDR(in *model.Instance) model.Placement {
	p := model.NewPlacement(in.M(), in.V())
	cat := in.Workload.Catalog
	cost := 0.0

	fits := func(svc, k int) bool {
		return !p.Has(svc, k) &&
			in.StorageUsed(p, k)+cat.Service(svc).Storage <= in.Graph.Node(k).Storage+model.FeasTol &&
			cost+cat.Service(svc).DeployCost <= in.Budget+model.FeasTol
	}
	place := func(svc, k int) bool {
		if fits(svc, k) {
			p.Set(svc, k, true)
			cost += cat.Service(svc).DeployCost
			return true
		}
		return false
	}
	// placeNearest tries k, then every node ordered by path cost from k.
	placeNearest := func(svc, k int) {
		if place(svc, k) {
			return
		}
		order := nodesByDistance(in, k)
		for _, q := range order {
			if place(svc, q) {
				return
			}
		}
	}

	// Capacity-descending server order for multi-user services. JDR
	// concentrates multi-user services on the high-capacity tier — the top
	// fifth of servers — which is what makes it latency-suboptimal when
	// the big machines sit far from the crowd (the paper's Fig. 9/10
	// criticism).
	capOrder := make([]int, in.V())
	for i := range capOrder {
		capOrder[i] = i
	}
	sort.Slice(capOrder, func(a, b int) bool {
		ca, cb := in.Graph.Node(capOrder[a]).Compute, in.Graph.Node(capOrder[b]).Compute
		if ca != cb {
			return ca > cb
		}
		return capOrder[a] < capOrder[b]
	})
	tier := (in.V() + 4) / 5
	if tier < 2 {
		tier = 2
	}
	if tier > in.V() {
		tier = in.V()
	}
	capTier := capOrder[:tier]

	// One pass over the requests serves both passes below: the used services
	// (ascending — a deterministic order), their demand nodes and user counts.
	idx := msvc.NewIndex(in.Workload, in.V())
	used := idx.ServicesUsed()
	multiUser := func(svc int) bool {
		totalUsers := 0
		for _, d := range idx.DemandRow(svc) {
			totalUsers += d
		}
		return totalUsers > 1
	}

	// Pass 1 — continuity: one instance per used service before any
	// redundancy, so the budget cannot be exhausted by redundant copies of
	// early services while later services go uncovered.
	for _, svc := range used {
		demand := idx.NodesRequesting(svc)
		if !multiUser(svc) {
			placeNearest(svc, demand[0]) // single-user: next to the user
			continue
		}
		// Multi-user: first instance on the highest-capacity server that
		// fits.
		placed := false
		for _, k := range capTier {
			if place(svc, k) {
				placed = true
				break
			}
		}
		if !placed {
			placeNearest(svc, demand[0])
		}
	}

	// Pass 2 — redundancy: multi-user services add instances on high-
	// capacity servers, one per demand node (the paper's redundancy
	// criticism of JDR).
	for _, svc := range used {
		if !multiUser(svc) {
			continue
		}
		target := len(idx.NodesRequesting(svc))
		for _, k := range capTier {
			if p.Count(svc) >= target {
				break
			}
			place(svc, k)
		}
	}
	return p
}

// GCOGResult carries the GC-OG placement plus its search effort, used by
// the runtime comparisons.
type GCOGResult struct {
	Placement model.Placement
	Rounds    int
	Evals     int // exact objective evaluations performed
}

// gcogInitial builds the shared starting placement: a continuity pass (one
// instance per used service at — or nearest to — its first demand node),
// then storage-aware full coverage of every demand site. Shared with the
// from-scratch reference loop of the differential tests so both start from
// identical states.
func gcogInitial(in *model.Instance, used []int) model.Placement {
	cat := in.Workload.Catalog
	p := model.NewPlacement(in.M(), in.V())
	roomAt := func(svc, k int) bool {
		return in.StorageUsed(p, k)+cat.Service(svc).Storage <= in.Graph.Node(k).Storage+model.FeasTol
	}
	// Continuity pass first: one instance per service before any redundancy,
	// so storage cannot be exhausted by early services' copies while later
	// services go uncovered.
	for _, svc := range used {
		home := in.Workload.NodesRequesting(svc)[0]
		if roomAt(svc, home) {
			p.Set(svc, home, true)
			continue
		}
		for _, k := range nodesByDistance(in, home) {
			if roomAt(svc, k) {
				p.Set(svc, k, true)
				break
			}
		}
	}
	// Full coverage of remaining demand sites, storage-aware: a site that
	// would overflow is skipped, so removals never need to repair storage.
	for _, svc := range used {
		for _, k := range in.Workload.NodesRequesting(svc) {
			if !p.Has(svc, k) && roomAt(svc, k) {
				p.Set(svc, k, true)
			}
		}
	}
	return p
}

// GCOG runs greedy combine with objective gradient: start from
// full coverage of every demand site, then repeatedly evaluate every
// possible single-instance removal with the exact evaluator and apply the
// best one, until the budget and storage constraints hold and no removal
// improves the objective, every candidate scored under optimal routing.
//
// Each candidate removal is scored through a model.DeltaEvaluator probe
// (Apply → Eval → Revert), re-routing only the requests that traversed the
// removed instance. The test-only reference loop re-evaluates the whole
// placement from scratch per candidate; both count one Eval per candidate
// and are bit-identical in outcome (see TestGCOGDifferential).
func GCOG(in *model.Instance) GCOGResult {
	used := append([]int(nil), in.Workload.ServicesUsed()...)
	sort.Ints(used)
	p := gcogInitial(in, used)

	de := model.NewDeltaEvaluator(in, p, model.RouteModeOptimal, 0)
	res := GCOGResult{}
	maxRounds := in.M()*in.V() + 16
	for ; res.Rounds < maxRounds; res.Rounds++ {
		cur := de.Eval()
		res.Evals++
		needReduce := cur.OverBudget

		bestObj := cur.Objective
		bestSvc, bestK := -1, -1
		forcedObj := math.Inf(1)
		forcedSvc, forcedK := -1, -1
		for _, svc := range used {
			if de.Placement().Count(svc) <= 1 {
				continue
			}
			for _, k := range de.Placement().NodesOf(svc) {
				obj, _ := de.ProbeRemoval(svc, k)
				res.Evals++
				if obj < bestObj-model.ObjTol {
					bestObj, bestSvc, bestK = obj, svc, k
				}
				if obj < forcedObj {
					forcedObj, forcedSvc, forcedK = obj, svc, k
				}
			}
		}
		switch {
		case bestSvc != -1:
			de.Apply(bestSvc, bestK, false)
		case needReduce && forcedSvc != -1:
			// No improving move but the budget still binds: take the
			// least-damaging removal.
			de.Apply(forcedSvc, forcedK, false)
		default:
			return GCOGResult{Placement: de.Placement(), Rounds: res.Rounds, Evals: res.Evals}
		}
	}
	res.Placement = de.Placement()
	return res
}

// nodesByDistance returns all nodes ordered by ascending path cost from k
// (excluding k itself).
func nodesByDistance(in *model.Instance, k int) []int {
	order := make([]int, 0, in.V()-1)
	for q := 0; q < in.V(); q++ {
		if q != k {
			order = append(order, q)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := in.Graph.PathCost(k, order[a]), in.Graph.PathCost(k, order[b])
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	return order
}
