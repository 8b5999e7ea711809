package topology

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// This file adds the region/zone hierarchy used by the sharded combine path
// (internal/combine.RunSharded): a generator for clustered substrates whose
// regions are dense internally and sparsely interconnected, a ShardPlan that
// records which shard owns each node plus the boundary structure between
// shards, and an induced-subgraph extractor that lets each shard finalize
// (and pay the O(|V_s|²) path tables for) only its own slice of the network.
//
// None of these require the parent graph to be finalized: Clustered returns
// an unfinalized graph on purpose, because at 10⁴ nodes the global all-pairs
// tables cost ~3 GB and minutes of Dijkstra that the sharded pipeline never
// needs. Callers that want global queries (small differential tests) call
// Finalize themselves.

// ClusterConfig configures the Clustered generator.
type ClusterConfig struct {
	// Regions is the number of regions, laid out on a near-square grid.
	Regions int
	// NodesPerRegion is the node count of every region.
	NodesPerRegion int
	// Radius is the intra-region link radius in region-local units (a region
	// occupies a unit square of its own before grid scaling), mirroring
	// RandomGeometric's radius semantics within each region.
	Radius float64
	// InterLinks is the number of links between each pair of grid-adjacent
	// regions: the nearest cross-region node pair always links; the remainder
	// are seeded random pairs. Minimum 1.
	InterLinks int
	// InterRateFrac scales inter-region link rates below the intra-region
	// range, modelling thin backhaul between zones. (0,1]; 1 keeps rates in
	// the same range as intra-region links.
	InterRateFrac float64
	// Gen supplies the node-capacity and link-rate ranges.
	Gen GenConfig
}

// DefaultClusterConfig returns a clustered substrate with paper-ranged
// capacities, a dense intra-region radius, and thin dual-link backhaul.
func DefaultClusterConfig(regions, nodesPerRegion int) ClusterConfig {
	return ClusterConfig{
		Regions:        regions,
		NodesPerRegion: nodesPerRegion,
		Radius:         0.45,
		InterLinks:     2,
		InterRateFrac:  0.5,
		Gen:            DefaultGenConfig(),
	}
}

// Clustered generates an unfinalized clustered substrate: cfg.Regions regions
// on a near-square grid, each an internally connected random-geometric
// subgraph of cfg.NodesPerRegion nodes, with cfg.InterLinks backhaul links
// between every pair of grid-adjacent regions. Node IDs are contiguous per
// region (region r owns [r·n, (r+1)·n)), and the returned region slices are
// sorted ascending — ready to feed PlanShards.
//
// The graph is connected (each region is internally connected and the region
// grid is connected) but NOT finalized; see the file comment.
func Clustered(cfg ClusterConfig, seed int64) (*Graph, [][]NodeID) {
	if cfg.Regions < 1 {
		cfg.Regions = 1
	}
	if cfg.NodesPerRegion < 1 {
		cfg.NodesPerRegion = 1
	}
	if cfg.InterLinks < 1 {
		cfg.InterLinks = 1
	}
	if cfg.InterRateFrac <= 0 || cfg.InterRateFrac > 1 {
		cfg.InterRateFrac = 1
	}
	r := stats.NewRand(stats.SplitSeed(seed, "topology/clustered"))
	gridW := 1
	for gridW*gridW < cfg.Regions {
		gridW++
	}
	scale := 1 / float64(gridW)
	n := cfg.NodesPerRegion
	g := New(cfg.Regions * n)
	regions := make([][]NodeID, cfg.Regions)

	for reg := 0; reg < cfg.Regions; reg++ {
		cx, cy := float64(reg%gridW), float64(reg/gridW)
		ids := make([]NodeID, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, g.AddNode(
				(cx+r.Float64())*scale, (cy+r.Float64())*scale,
				stats.UniformIn(r, cfg.Gen.ComputeMin, cfg.Gen.ComputeMax),
				stats.UniformIn(r, cfg.Gen.StorageMin, cfg.Gen.StorageMax)))
		}
		regions[reg] = ids
		// Intra-region geometric links: the per-region O(n²) pair scan is the
		// whole point — a global scan would be O((R·n)²).
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if nodeDist(g.nodes[ids[i]], g.nodes[ids[j]]) <= cfg.Radius*scale {
					_ = g.AddLink(ids[i], ids[j], cfg.Gen.drawRate(r))
				}
			}
		}
		connectRegion(g, ids, cfg.Gen, r)
	}

	// Backhaul between grid-adjacent regions: nearest cross pair first, then
	// seeded random pairs. Rates are thinned by InterRateFrac.
	interRate := func() float64 { return cfg.Gen.drawRate(r) * cfg.InterRateFrac }
	for reg := 0; reg < cfg.Regions; reg++ {
		for _, nb := range []int{reg + 1, reg + gridW} {
			if nb >= cfg.Regions {
				continue
			}
			if nb == reg+1 && nb%gridW == 0 {
				continue // grid row wrap: not adjacent
			}
			a, b := regions[reg], regions[nb]
			bestA, bestB, bestD := a[0], b[0], math.Inf(1)
			for _, u := range a {
				for _, v := range b {
					if d := nodeDist(g.nodes[u], g.nodes[v]); d < bestD {
						bestA, bestB, bestD = u, v, d
					}
				}
			}
			_ = g.AddLink(bestA, bestB, interRate())
			for extra := 1; extra < cfg.InterLinks; extra++ {
				_ = g.AddLink(a[r.Intn(len(a))], b[r.Intn(len(b))], interRate())
			}
		}
	}
	return g, regions
}

// connectRegion links the local components of the region induced by ids
// (nearest pair across the first two local components, repeatedly) until the
// region is internally connected — connect()'s logic restricted to a node
// subset so it never scans the whole graph.
func connectRegion(g *Graph, ids []NodeID, cfg GenConfig, r interface{ Float64() float64 }) {
	local := make(map[NodeID]int, len(ids))
	for i, id := range ids {
		local[id] = i
	}
	for {
		comps := regionComponents(g, ids, local)
		if len(comps) <= 1 {
			return
		}
		bestA, bestB, bestD := NodeID(-1), NodeID(-1), math.Inf(1)
		for _, a := range comps[0] {
			for _, b := range comps[1] {
				if d := nodeDist(g.nodes[a], g.nodes[b]); d < bestD {
					bestA, bestB, bestD = a, b, d
				}
			}
		}
		_ = g.AddLink(bestA, bestB, cfg.drawRate(r))
	}
}

// regionComponents returns the connected components of the subgraph induced
// by ids, each sorted ascending, ordered by smallest member.
func regionComponents(g *Graph, ids []NodeID, local map[NodeID]int) [][]NodeID {
	seen := make([]bool, len(ids))
	var comps [][]NodeID
	for i, start := range ids {
		if seen[i] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{start}
		seen[i] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if li, ok := local[int(e.to)]; ok && !seen[li] {
					seen[li] = true
					stack = append(stack, int(e.to))
				}
			}
		}
		sortIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ShardPlan assigns every node of a graph to exactly one shard and records
// the boundary structure the sharded combine needs: which owned nodes touch
// another shard (gateways), which shards are adjacent, and each shard's halo
// (the foreign nodes one link away). Users and service chains follow their
// home node's shard; the plan itself is purely topological.
type ShardPlan struct {
	// NumShards is the shard count.
	NumShards int
	// NodeShard[v] is the shard owning node v.
	NodeShard []int
	// Shards[s] is the sorted list of nodes owned by shard s.
	Shards [][]NodeID
	// Gateways[s] is the sorted subset of Shards[s] incident to at least one
	// inter-shard link: the only instances boundary reconciliation probes.
	Gateways [][]NodeID
	// Neighbors[s] is the sorted list of shards sharing a link with s.
	Neighbors [][]int
	// halos[s] is the sorted list of foreign nodes directly linked to shard s
	// (the neighbors' gateways facing s).
	halos [][]NodeID
}

// PlanShards builds a ShardPlan from a graph and a node partition (e.g. the
// region slices Clustered returns). Every node must appear in exactly one
// shard. The graph need not be finalized.
func PlanShards(g *Graph, shards [][]NodeID) (*ShardPlan, error) {
	V := g.N()
	p := &ShardPlan{
		NumShards: len(shards),
		NodeShard: make([]int, V),
		Shards:    make([][]NodeID, len(shards)),
	}
	for v := range p.NodeShard {
		p.NodeShard[v] = -1
	}
	for s, nodes := range shards {
		own := append([]NodeID(nil), nodes...)
		sort.Ints(own)
		for _, v := range own {
			if v < 0 || v >= V {
				return nil, fmt.Errorf("topology: shard %d node %d out of range [0,%d)", s, v, V)
			}
			if p.NodeShard[v] != -1 {
				return nil, fmt.Errorf("topology: node %d assigned to shards %d and %d", v, p.NodeShard[v], s)
			}
			p.NodeShard[v] = s
		}
		p.Shards[s] = own
	}
	for v, s := range p.NodeShard {
		if s == -1 {
			return nil, fmt.Errorf("topology: node %d assigned to no shard", v)
		}
	}

	// Boundary structure. Links() iterates a map, so membership is collected
	// into order-independent sets first and sorted lists are derived after —
	// the plan is a pure function of the graph, not of iteration order.
	S := len(shards)
	gateway := make([]bool, V)
	neighbor := make(map[[2]int]bool)
	haloOf := make([]map[NodeID]bool, S)
	for s := range haloOf {
		haloOf[s] = make(map[NodeID]bool)
	}
	for _, l := range g.Links() {
		sa, sb := p.NodeShard[l.A], p.NodeShard[l.B]
		if sa == sb {
			continue
		}
		gateway[l.A], gateway[l.B] = true, true
		neighbor[[2]int{sa, sb}] = true
		neighbor[[2]int{sb, sa}] = true
		haloOf[sa][l.B] = true
		haloOf[sb][l.A] = true
	}
	p.Gateways = make([][]NodeID, S)
	p.Neighbors = make([][]int, S)
	p.halos = make([][]NodeID, S)
	for s := 0; s < S; s++ {
		for _, v := range p.Shards[s] {
			if gateway[v] {
				p.Gateways[s] = append(p.Gateways[s], v)
			}
		}
		for t := 0; t < S; t++ {
			if t != s && neighbor[[2]int{s, t}] {
				p.Neighbors[s] = append(p.Neighbors[s], t)
			}
		}
		for v := range haloOf[s] {
			p.halos[s] = append(p.halos[s], v)
		}
		sort.Ints(p.halos[s])
	}
	return p, nil
}

// Halo returns the sorted foreign nodes directly linked to shard s: the
// one-link neighborhood boundary reconciliation scores removals against.
func (p *ShardPlan) Halo(s int) []NodeID { return p.halos[s] }

// Subgraph extracts the induced subgraph on the given nodes: node attributes
// are copied, and every link of g with both endpoints in the set is kept.
// Local IDs follow the order of the nodes argument (the k-th listed node
// becomes local ID k), which lets callers put owned nodes first and halo
// nodes after. Duplicate or out-of-range nodes panic.
//
// The parent may be unfinalized; the extract is returned finalized over its
// own |V_s| nodes — paying the path tables for a shard's slice instead of
// the whole network is the sharded path's core saving.
func Subgraph(g *Graph, nodes []NodeID) *Graph {
	// local[v] is parent node v's local ID, -1 outside the set.
	local := make([]int32, g.N())
	for v := range local {
		local[v] = -1
	}
	sub := make([]Node, len(nodes))
	for i, v := range nodes {
		if v < 0 || v >= g.N() {
			panic(fmt.Sprintf("topology: Subgraph node %d out of range [0,%d)", v, g.N()))
		}
		if local[v] != -1 {
			panic(fmt.Sprintf("topology: Subgraph node %d listed twice", v))
		}
		local[v] = int32(i)
		sub[i] = g.nodes[v]
	}
	// Deterministic link order: walk the included nodes in local order and
	// their adjacency lists in insertion order, keeping each link once, from
	// its lower local endpoint.
	var links []Link
	for i, v := range nodes {
		for _, e := range g.adj[v] {
			if j := int(local[e.to]); j > i {
				links = append(links, Link{A: i, B: j, Rate: g.rates[linkKey(v, int(e.to))]})
			}
		}
	}
	out, err := Build(sub, links)
	if err != nil {
		panic("topology: Subgraph: " + err.Error()) // unreachable: endpoints and rates come from g
	}
	return out
}
