package combine

import (
	"math"
	"sort"

	"repro/internal/fuzzy"
	"repro/internal/model"
	"repro/internal/partition"
)

// refRun is the full-rescan reference of Run (Algorithms 3–5) that the
// incremental engine is differentially tested against. It caches nothing the
// engine caches: candidate lists come from Placement.NodesOf, partition
// groups from ServicePartition.GroupOf, relying steps and ζ from a scan of
// every (h,t) reliance, ψ from every row, ρ from its formula, the Eq. 4
// verdict from Instance.RouteOptimal plus the cloud fallback, and the
// roll-back snapshot is a placement copy. It shares only the pure per-step
// formulas (stepLatency, computeDemandFactor, filterDependencyConflicts),
// called on a state that holds the instance, the partition and the weights
// and nothing else. It must not change behaviour.
func refRun(in *model.Instance, part *partition.Result, pre model.Placement, cfg Config) Result {
	if cfg.Omega <= 0 || cfg.Omega > 1 {
		cfg.Omega = 0.25
	}
	maxRounds := in.M()*in.V() + 16
	r := &refState{
		in:     in,
		part:   part,
		pure:   &state{in: in, part: part, weights: fuzzy.SoCLWeights()},
		place:  pre.Clone(),
		frozen: make(map[instKey]bool),
		warm:   make(map[instKey]bool),
	}
	for i := range cfg.Warm.X {
		for k, on := range cfg.Warm.X[i] {
			if on {
				r.warm[instKey{i, k}] = true
			}
		}
	}
	r.cost = in.DeployCost(r.place)
	r.rel = make([][]int, len(in.Workload.Requests))
	for h, req := range in.Workload.Requests {
		r.rel[h] = make([]int, len(req.Chain))
		for t := range r.rel[h] {
			r.rel[h][t] = r.pickReliance(h, t, -1)
		}
	}

	res := Result{}
	res.BudgetMet = r.parallelPhase(cfg.Omega, maxRounds, &res)
	r.serialPhase(maxRounds, &res)
	r.storagePlanning(&res)
	res.Placement = r.place
	return res
}

type refState struct {
	in     *model.Instance
	part   *partition.Result
	pure   *state // the pure formulas only: no placement, index or cache
	place  model.Placement
	rel    [][]int
	frozen map[instKey]bool
	warm   map[instKey]bool
	cost   float64
}

func (r *refState) pickReliance(h, t, excl int) int {
	req := &r.in.Workload.Requests[h]
	sp := r.part.ByService[req.Chain[t]]
	homeGroup := -1
	if sp != nil {
		homeGroup = sp.GroupOf(req.Home)
	}
	best, bestCost, bestInGroup := -1, math.Inf(1), false
	for _, k := range r.place.NodesOf(req.Chain[t]) {
		if k == excl {
			continue
		}
		inGroup := homeGroup != -1 && sp.GroupOf(k) == homeGroup
		c := r.in.Graph.PathCost(req.Home, k)
		if best == -1 || (inGroup && !bestInGroup) ||
			(inGroup == bestInGroup && c < bestCost) {
			best, bestCost, bestInGroup = k, c, inGroup
		}
	}
	if best == -1 && r.in.Cloud != nil {
		return cloudNode
	}
	return best
}

func (r *refState) starObjective() float64 {
	lat := 0.0
	for h := range r.rel {
		row := 0.0
		for t, k := range r.rel[h] {
			if k == -1 {
				return math.Inf(1)
			}
			row += r.pure.stepLatency(h, t, k)
		}
		lat += row
	}
	return r.in.Objective(r.cost, lat)
}

func (r *refState) zeta(svc, node int) float64 {
	loss := 0.0
	for h := range r.rel {
		req := &r.in.Workload.Requests[h]
		for t, k := range r.rel[h] {
			if k != node || req.Chain[t] != svc {
				continue
			}
			alt := r.pickReliance(h, t, node)
			if alt == -1 {
				return math.Inf(1)
			}
			loss += r.pure.stepLatency(h, t, alt) - r.pure.stepLatency(h, t, node)
		}
	}
	return loss
}

func (r *refState) updateInstanceSet() []scoredInst {
	var out []scoredInst
	for _, svc := range r.part.Index.ServicesUsed() {
		nodes := r.place.NodesOf(svc)
		if len(nodes) <= 1 && r.in.Cloud == nil {
			continue
		}
		for _, k := range nodes {
			if key := (instKey{svc, k}); !r.frozen[key] {
				out = append(out, scoredInst{key, r.zeta(svc, k)})
			}
		}
	}
	rank := func(sc scoredInst) float64 {
		if r.warm[sc.key] && !math.IsInf(sc.zeta, 1) {
			return sc.zeta + warmBias
		}
		return sc.zeta
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		wi, wj := r.warm[out[i].key], r.warm[out[j].key]
		if wi != wj {
			return !wi
		}
		if out[i].key.svc != out[j].key.svc {
			return out[i].key.svc < out[j].key.svc
		}
		return out[i].key.node < out[j].key.node
	})
	return out
}

// rehome re-picks the reliance of every step served by the (already
// removed) instance (svc,node), found by scanning all of rel.
func (r *refState) rehome(svc, node int) {
	for h := range r.rel {
		req := &r.in.Workload.Requests[h]
		for t, k := range r.rel[h] {
			if k == node && req.Chain[t] == svc {
				r.rel[h][t] = r.pickReliance(h, t, -1)
			}
		}
	}
}

func (r *refState) removeInstance(svc, node int) {
	r.place.Set(svc, node, false)
	r.cost -= r.in.Workload.Catalog.Service(svc).DeployCost
	r.rehome(svc, node)
}

func (r *refState) parallelPhase(omega float64, maxRounds int, res *Result) bool {
	floor := 1
	if r.in.Cloud != nil {
		floor = 0
	}
	for round := 0; round < maxRounds; round++ {
		if r.cost <= r.in.Budget {
			return true
		}
		list := r.updateInstanceSet()
		if len(list) == 0 {
			break
		}
		batch := min(max(int(math.Ceil(omega*float64(len(list)))), 1), len(list))
		removedAny := false
		for _, inst := range r.pure.filterDependencyConflicts(list[:batch]) {
			if r.cost <= r.in.Budget {
				break
			}
			if math.IsInf(inst.zeta, 1) || r.place.Count(inst.key.svc) <= floor ||
				!r.place.Has(inst.key.svc, inst.key.node) {
				continue
			}
			r.removeInstance(inst.key.svc, inst.key.node)
			res.Combined++
			removedAny = true
		}
		res.ParallelRounds++
		if !removedAny {
			break
		}
	}
	return r.cost <= r.in.Budget
}

// refSnapshot is a full copy of everything a serial step can change.
type refSnapshot struct {
	place    model.Placement
	rel      [][]int
	frozen   map[instKey]bool
	cost     float64
	migrated int
}

func (r *refState) snapshot(res *Result) refSnapshot {
	sn := refSnapshot{place: r.place.Clone(), frozen: make(map[instKey]bool, len(r.frozen)),
		cost: r.cost, migrated: res.Migrated}
	for _, row := range r.rel {
		sn.rel = append(sn.rel, append([]int(nil), row...))
	}
	for k, v := range r.frozen {
		sn.frozen[k] = v
	}
	return sn
}

func (r *refState) restore(sn refSnapshot, res *Result) {
	r.place, r.rel, r.frozen, r.cost = sn.place, sn.rel, sn.frozen, sn.cost
	res.Migrated = sn.migrated
}

func (r *refState) serialPhase(maxRounds int, res *Result) {
	for round := 0; round < maxRounds; round++ {
		list := r.updateInstanceSet()
		if len(list) == 0 || math.IsInf(list[0].zeta, 1) {
			return
		}
		inst := list[0]
		qBefore := r.starObjective()
		sn := r.snapshot(res)
		r.removeInstance(inst.key.svc, inst.key.node)
		res.SerialRounds++
		if !r.storagePlanning(res) {
			res.Combined++
			continue
		}
		if refDeadlineViolated(r.in, r.place) {
			r.restore(sn, res)
			r.frozen[inst.key] = true
			res.RolledBack++
			continue
		}
		if qBefore-r.starObjective()+theta <= 0 {
			r.restore(sn, res)
			return
		}
		res.Combined++
	}
}

// refDeadlineViolated routes every finite-deadline request from scratch
// under p: a request whose chain lost its last instance falls back to the
// cloud when one exists, and any other routing error is a violation.
func refDeadlineViolated(in *model.Instance, p model.Placement) bool {
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		if math.IsInf(req.Deadline, 1) {
			continue
		}
		_, d, err := in.RouteOptimal(req, p)
		if err != nil {
			if !model.IsNoInstance(err) || in.Cloud == nil {
				return true
			}
			d = in.Cloud.CloudCompletionTime(in.Workload.Catalog, req)
		}
		if d > req.Deadline+model.FeasTol {
			return true
		}
	}
	return false
}

func (r *refState) storagePlanning(res *Result) bool {
	in := r.in
	need := 0.0
	for i := 0; i < in.M(); i++ {
		need += float64(r.place.Count(i)) * in.Workload.Catalog.Service(i).Storage
	}
	if need > in.Graph.TotalStorage()+model.FeasTol {
		return false
	}
	for k := 0; k < in.V(); k++ {
		for guard := 1; in.StorageUsed(r.place, k) > in.Graph.Node(k).Storage+model.FeasTol; guard++ {
			if guard > in.M()+1 {
				return false
			}
			j, bestRho := -1, math.Inf(1)
			for i := 0; i < in.M(); i++ {
				if !r.place.Has(i, k) {
					continue
				}
				if rho := r.pure.computeDemandFactor(i, k); rho < bestRho {
					j, bestRho = i, rho
				}
			}
			if j == -1 || !r.migrate(j, k, res) {
				return false
			}
		}
	}
	return true
}

func (r *refState) migrate(svc, k int, res *Result) bool {
	in := r.in
	phi := in.Workload.Catalog.Service(svc).Storage
	var targets []int
	for q := 0; q < in.V(); q++ {
		if q != k {
			targets = append(targets, q)
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		ci, cj := in.Graph.PathCost(k, targets[i]), in.Graph.PathCost(k, targets[j])
		if ci != cj {
			return ci < cj
		}
		return targets[i] < targets[j]
	})
	for _, q := range targets {
		if r.place.Has(svc, q) ||
			in.StorageUsed(r.place, q)+phi > in.Graph.Node(q).Storage+model.FeasTol {
			continue
		}
		r.place.Set(svc, q, true)
		r.place.Set(svc, k, false)
		r.rehome(svc, k)
		delete(r.frozen, instKey{svc, k})
		res.Migrated++
		return true
	}
	return false
}
