// Package preprov implements Algorithm 2 of the SoCL paper: instance
// pre-provisioning. Starting from the region-based initial partition, it
// derives a budget-based bound on the instance count of each microservice
// (N̄(m_i) = min{|V(m_i)|, ⌊(𝒦^max − 𝒦^ι(m_i))/κ(m_i)⌋}), allocates each
// partition a quota proportional to its demand share ε_s(m_i), and places
// instances either on every group node (when the quota covers the group) or
// greedily by instance contribution 𝔻 (Eq. 13) otherwise.
package preprov

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/partition"
)

// Result carries the pre-provisioned placement 𝒫^t plus the per-service
// bound N̄ used, for inspection and for the combination stage.
type Result struct {
	Placement model.Placement
	// Bound[svc] is N̄(m_i); only populated for used services.
	Bound map[int]int
	// Quota[svc][group] is the (fractional) quota ε_s·N̄ assigned.
	Quota map[int][]float64
}

// Run executes Algorithm 2. The resulting placement deploys every used
// microservice at least once (service continuity), so downstream routing is
// always defined; it may exceed the budget — trimming instances to meet
// 𝒦^max is the combination stage's job (Algorithm 3, large-scale loop).
func Run(in *model.Instance, part *partition.Result) *Result {
	res := &Result{
		Placement: model.NewPlacement(in.M(), in.V()),
		Bound:     make(map[int]int),
		Quota:     make(map[int][]float64),
	}
	cat := in.Workload.Catalog

	// 𝒦^ι(m_i): the budget irrevocably claimed by one instance of every
	// other used microservice (each used service needs ≥ 1 instance).
	used := part.Index.ServicesUsed()
	totalKappa := 0.0
	for _, svc := range used {
		totalKappa += cat.Service(svc).DeployCost
	}

	for _, svc := range used {
		sp := part.ByService[svc]
		if sp == nil {
			continue
		}
		kappa := cat.Service(svc).DeployCost
		iota := totalKappa - kappa // Σ_{j≠i} κ(m_j)
		nu := int(math.Floor((in.Budget - iota) / kappa))
		if nu < 1 {
			nu = 1 // service continuity: never bound below one instance
		}
		bound := len(part.Index.NodesRequesting(svc)) // |V(m_i)|
		if nu < bound {
			bound = nu
		}
		if bound < 1 {
			bound = 1
		}
		res.Bound[svc] = bound

		// Demand share ε_s per group.
		groupDemand := make([]float64, len(sp.Groups))
		total := 0.0
		for s, grp := range sp.Groups {
			for _, k := range grp.Members {
				groupDemand[s] += float64(sp.Demand[k])
			}
			total += groupDemand[s]
		}
		quotas := make([]float64, len(sp.Groups))
		for s := range quotas {
			if total > 0 {
				quotas[s] = groupDemand[s] / total * float64(bound)
			}
		}
		res.Quota[svc] = quotas

		for s := range sp.Groups {
			provisionGroup(in, sp, s, quotas[s], res.Placement)
		}

		// Guard: ε_s·N̄ < 1 for every group can leave a service with zero
		// instances (all loop bodies skipped). Deploy one instance at the
		// globally best-contribution node so constraint (9) stays
		// satisfiable.
		if res.Placement.Count(svc) == 0 {
			bestK, bestD := -1, math.Inf(1)
			for s := range sp.Groups {
				for _, k := range sp.Groups[s].Nodes() {
					if d := contribution(in, sp, s, k); d < bestD {
						bestD, bestK = d, k
					}
				}
			}
			if bestK >= 0 {
				res.Placement.Set(svc, bestK, true)
			}
		}
	}
	return res
}

// provisionGroup implements lines 8–14 for one partition p_s(m_i):
// full coverage when the quota suffices, otherwise contribution-greedy
// selection of ⌈quota⌉-bounded instance sites.
func provisionGroup(in *model.Instance, sp *partition.ServicePartition, s int, quota float64, p model.Placement) {
	grp := &sp.Groups[s]
	nodes := grp.Nodes() // members then candidates
	if quota >= float64(len(nodes)) {
		for _, k := range nodes {
			p.Set(sp.Service, k, true)
		}
		return
	}
	// Order all group nodes by ascending 𝔻 (Eq. 13): smaller estimated
	// group completion time → more attractive host.
	type scored struct {
		k int
		d float64
	}
	list := make([]scored, 0, len(nodes))
	for _, k := range nodes {
		list = append(list, scored{k, contribution(in, sp, s, k)})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].d != list[j].d {
			return list[i].d < list[j].d
		}
		return list[i].k < list[j].k
	})
	target := int(quota) // ⌊ε_s·N̄⌋ iterations of the while loop
	for i := 0; i < target && i < len(list); i++ {
		p.Set(sp.Service, list[i].k, true)
	}
}

// contribution computes 𝔻_{p_s(m_i)}(v_k) (Eq. 13): the estimated group
// completion time with v_k as the sole host — remote members' demand-
// weighted transfer plus local compute time.
func contribution(in *model.Instance, sp *partition.ServicePartition, s int, k int) float64 {
	g := in.Graph
	grp := &sp.Groups[s]
	d := in.Workload.Catalog.Service(sp.Service).Compute / g.Node(k).Compute
	for _, vi := range grp.Members {
		if vi == k {
			continue
		}
		c := g.PathCost(vi, k)
		if math.IsInf(c, 1) {
			c = 1e12
		}
		d += float64(sp.Demand[vi]) * c
	}
	return d
}
