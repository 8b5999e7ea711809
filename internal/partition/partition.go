// Package partition implements Algorithm 1 of the SoCL paper: region-based
// initial partitioning. For every microservice m_i it collects the edge
// servers hosting requests for m_i (V(m_i)), reconnects them through virtual
// links whose channel speed 𝔹(l') is the harmonic mean of the physical links
// on the shortest path, keeps virtual links stronger than a threshold ξ, and
// groups the nodes into connected components. Each group is then extended
// with candidate nodes — servers that host no requests for m_i themselves
// but, per the proactive factor Δ (Eq. 12) and the degree condition of
// Theorem 1 (ℋ > 2), would reduce the group's completion time if m_i were
// provisioned on them.
package partition

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/msvc"
)

// Config controls partitioning.
type Config struct {
	// Xi is the virtual-link speed threshold ξ (GB/s). Links with
	// 𝔹(l') > ξ survive. When Xi <= 0, the threshold is chosen per service
	// as the XiQuantile-quantile of its virtual-link speeds.
	Xi         float64
	XiQuantile float64 // used when Xi <= 0; default 0.5 (median)
}

// DefaultConfig returns auto-thresholding at the median.
func DefaultConfig() Config { return Config{Xi: 0, XiQuantile: 0.5} }

// Group is one partition p_s(m_i): demand-hosting members plus elected
// candidate nodes.
type Group struct {
	// Members are the demand nodes of the group (subset of V(m_i)), sorted.
	Members []int
	// Candidates are elected proactive nodes (Δ < 0, ℋ > 2), sorted.
	Candidates []int
}

// Nodes returns members followed by candidates.
func (g *Group) Nodes() []int {
	out := make([]int, 0, len(g.Members)+len(g.Candidates))
	out = append(out, g.Members...)
	out = append(out, g.Candidates...)
	return out
}

// ServicePartition is 𝒫(m_i): the groups for one microservice.
type ServicePartition struct {
	Service int
	Groups  []Group
	// Demand[k] is r_k: the number of requests for the service homed at
	// node k (zero for nodes without demand). It is the service's row of
	// Result.Index and must not be modified.
	Demand []int
	// XiUsed is the threshold actually applied for this service.
	XiUsed float64
}

// GroupOf returns the index of the group containing node k (member or
// candidate), or -1.
func (sp *ServicePartition) GroupOf(k int) int {
	for s := range sp.Groups {
		for _, n := range sp.Groups[s].Members {
			if n == k {
				return s
			}
		}
		for _, n := range sp.Groups[s].Candidates {
			if n == k {
				return s
			}
		}
	}
	return -1
}

// Result is the initial partition 𝒫 for all microservices.
type Result struct {
	ByService map[int]*ServicePartition
	// Chi[k] is the communication intensity χ_{v_k} = Σ_q 𝔹(l'_{k,q}).
	Chi []float64
	// Index is the workload index Build made its one pass over the requests
	// for. The later stages (pre-provisioning, combination) read demand,
	// used services and chain adjacency from it instead of rescanning.
	Index *msvc.Index
}

// Build runs Algorithm 1 on the instance.
func Build(in *model.Instance, cfg Config) *Result {
	if cfg.XiQuantile <= 0 || cfg.XiQuantile >= 1 {
		cfg.XiQuantile = 0.5
	}
	g := in.Graph
	V := g.N()

	// Precompute communication intensity χ for every node.
	chi := make([]float64, V)
	for k := 0; k < V; k++ {
		for q := 0; q < V; q++ {
			if q == k {
				continue
			}
			if v := g.VirtualSpeed(k, q); !math.IsInf(v, 1) {
				chi[k] += v
			}
		}
	}

	idx := msvc.NewIndex(in.Workload, V)
	res := &Result{ByService: make(map[int]*ServicePartition), Chi: chi, Index: idx}
	// Every service lists its virtual links into the same two buffers.
	buf := &linkBuf{links: make([]vlink, 0, V*(V-1)/2), speeds: make([]float64, 0, V*(V-1)/2)}
	for _, svc := range idx.ServicesUsed() {
		res.ByService[svc] = buildService(in, idx, svc, chi, cfg, buf)
	}
	return res
}

func buildService(in *model.Instance, idx *msvc.Index, svc int, chi []float64, cfg Config, buf *linkBuf) *ServicePartition {
	g := in.Graph
	nodes := idx.NodesRequesting(svc) // V(m_i), sorted
	sp := &ServicePartition{Service: svc, Demand: idx.DemandRow(svc)}

	// Virtual-link speeds among demand nodes; a and b are positions in nodes.
	links := buf.links[:0]
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			s := g.VirtualSpeed(nodes[i], nodes[j])
			if s > 0 && !math.IsInf(s, 1) {
				links = append(links, vlink{i, j, s})
			}
		}
	}

	xi := cfg.Xi
	if xi <= 0 {
		xi = quantileSpeed(links, cfg.XiQuantile, buf.speeds[:0])
	}
	sp.XiUsed = xi

	// Union-find over demand nodes with links 𝔹 > ξ.
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range links {
		if l.speed > xi {
			ra, rb := find(l.a), find(l.b)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	// Groups in ascending root order, members ascending within each.
	byRoot := make([][]int, len(nodes))
	for i, k := range nodes {
		r := find(i)
		byRoot[r] = append(byRoot[r], k)
	}
	for _, members := range byRoot {
		if members != nil {
			sp.Groups = append(sp.Groups, Group{Members: members})
		}
	}

	electCandidates(in, sp, chi)
	return sp
}

// linkBuf is Build's scratch space, sized for the all-pairs case once and
// reused by every service.
type linkBuf struct {
	links  []vlink
	speeds []float64
}

// vlink is a virtual link between two demand nodes with its harmonic-mean
// channel speed 𝔹(l').
type vlink struct {
	a, b  int // positions in the service's demand-node list
	speed float64
}

// quantileSpeed returns the q-quantile of virtual-link speeds (0 when no
// links exist, which leaves every node in its own group): the value at
// position ⌊q·(n−1)⌋ of the ascending order, found by selection — the links
// themselves must keep their order for the union-find that follows.
func quantileSpeed(links []vlink, q float64, speeds []float64) float64 {
	if len(links) == 0 {
		return 0
	}
	for _, l := range links {
		speeds = append(speeds, l.speed)
	}
	return selectNth(speeds, int(q*float64(len(speeds)-1)))
}

// selectNth returns the value an ascending sort of v would leave at index n,
// reordering v on the way (quickselect, median-of-three pivot, O(len(v))
// expected). v must hold no NaN.
func selectNth(v []float64, n int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo..j] ≤ pivot ≤ v[i..hi], and anything between equals the pivot.
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return v[n]
		}
	}
	return v[n]
}

// electCandidates implements lines 8–14 of Algorithm 1: for each group,
// scan non-demand nodes with degree ℋ > 2 (Theorem 1) and admit those whose
// proactive factor Δ (Eq. 12), checked against group members in ascending
// communication-intensity order, is negative.
func electCandidates(in *model.Instance, sp *ServicePartition, chi []float64) {
	g := in.Graph
	for s := range sp.Groups {
		group := &sp.Groups[s]
		// Members ordered by ascending χ (argmin χ first) — cheap-to-reach
		// members are the likeliest to make Δ negative.
		ordered := append([]int(nil), group.Members...)
		sort.Slice(ordered, func(i, j int) bool { return chi[ordered[i]] < chi[ordered[j]] })

		for k := 0; k < g.N(); k++ {
			if sp.Demand[k] > 0 { // a demand node is a member, never a candidate
				continue
			}
			if g.Degree(k) <= 2 { // Theorem 1: ℋ(v) > 2 required
				continue
			}
			// Δ^k < 0 against the first member that certifies it; stop at
			// the first success (early-exit of lines 13-14).
			for _, a := range ordered {
				if delta(in, sp, group, k, a) < 0 {
					group.Candidates = append(group.Candidates, k)
					break
				}
			}
		}
		sort.Ints(group.Candidates)
	}
}

// delta computes Δ^η (Eq. 12): the completion-time deviation of serving the
// group from candidate node eta versus from member a.
func delta(in *model.Instance, sp *ServicePartition, group *Group, eta, a int) float64 {
	g := in.Graph
	viaEta, viaA := 0.0, 0.0
	for _, vi := range group.Members {
		r := float64(sp.Demand[vi])
		if vi != eta {
			viaEta += r * safeCost(g.PathCost(vi, eta))
		}
		if vi != a {
			viaA += r * safeCost(g.PathCost(vi, a))
		}
	}
	return viaEta - viaA
}

func safeCost(c float64) float64 {
	if math.IsInf(c, 1) {
		return 1e12
	}
	return c
}
