package topology

import (
	"math"
	"reflect"
	"testing"
)

func TestClusteredConnectedContiguousRegions(t *testing.T) {
	g, regions := Clustered(DefaultClusterConfig(6, 7), 11)
	if g.N() != 42 {
		t.Fatalf("N = %d, want 42", g.N())
	}
	if len(regions) != 6 {
		t.Fatalf("regions = %d, want 6", len(regions))
	}
	// Regions partition the ID space contiguously and in order.
	next := 0
	for r, ids := range regions {
		if len(ids) != 7 {
			t.Fatalf("region %d has %d nodes, want 7", r, len(ids))
		}
		for _, v := range ids {
			if v != next {
				t.Fatalf("region %d: node %d, want contiguous %d", r, v, next)
			}
			next++
		}
	}
	// Connected as a whole (Components works on the unfinalized build state).
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("graph has %d components, want 1", len(comps))
	}
	// Each region internally connected.
	for r, ids := range regions {
		local := make(map[NodeID]int, len(ids))
		for i, id := range ids {
			local[id] = i
		}
		if comps := regionComponents(g, ids, local); len(comps) != 1 {
			t.Fatalf("region %d has %d internal components, want 1", r, len(comps))
		}
	}
}

func TestClusteredDeterministic(t *testing.T) {
	a, _ := Clustered(DefaultClusterConfig(4, 6), 3)
	b, _ := Clustered(DefaultClusterConfig(4, 6), 3)
	c, _ := Clustered(DefaultClusterConfig(4, 6), 4)
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("same seed, different link counts: %d vs %d", len(la), len(lb))
	}
	for i := range a.Nodes() {
		na, nb := a.Node(i), b.Node(i)
		if na != nb {
			t.Fatalf("same seed, node %d differs: %+v vs %+v", i, na, nb)
		}
	}
	for _, l := range la {
		rb, ok := b.LinkRate(l.A, l.B)
		if !ok || rb != l.Rate {
			t.Fatalf("same seed, link (%d,%d) differs", l.A, l.B)
		}
	}
	if len(c.Links()) == len(la) {
		same := true
		for i := range a.Nodes() {
			if a.Node(i) != c.Node(i) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical substrates")
		}
	}
}

func TestPlanShardsErrors(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(0, 0, 1, 1)
	}
	mustLink(t, g, 0, 1, 10)
	mustLink(t, g, 2, 3, 10)

	if _, err := PlanShards(g, [][]NodeID{{0, 1}, {2, 9}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := PlanShards(g, [][]NodeID{{0, 1, 2}, {2, 3}}); err == nil {
		t.Fatal("duplicate assignment accepted")
	}
	if _, err := PlanShards(g, [][]NodeID{{0, 1}, {2}}); err == nil {
		t.Fatal("unassigned node accepted")
	}
}

func TestPlanShardsBoundaryStructure(t *testing.T) {
	// Path 0-1-2-3 split down the middle: 1 and 2 are the facing gateways.
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(0, 0, 1, 1)
	}
	mustLink(t, g, 0, 1, 10)
	mustLink(t, g, 1, 2, 10)
	mustLink(t, g, 2, 3, 10)
	p, err := PlanShards(g, [][]NodeID{{1, 0}, {3, 2}}) // unsorted input is fine
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards != 2 {
		t.Fatalf("NumShards = %d", p.NumShards)
	}
	wantIDs := func(got []NodeID, want ...NodeID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
	wantIDs(p.Shards[0], 0, 1)
	wantIDs(p.Shards[1], 2, 3)
	wantIDs(p.Gateways[0], 1)
	wantIDs(p.Gateways[1], 2)
	wantIDs(p.Halo(0), 2)
	wantIDs(p.Halo(1), 1)
	if len(p.Neighbors[0]) != 1 || p.Neighbors[0][0] != 1 ||
		len(p.Neighbors[1]) != 1 || p.Neighbors[1][0] != 0 {
		t.Fatalf("neighbors = %v", p.Neighbors)
	}
	if p.NodeShard[0] != 0 || p.NodeShard[1] != 0 || p.NodeShard[2] != 1 || p.NodeShard[3] != 1 {
		t.Fatalf("NodeShard = %v", p.NodeShard)
	}
}

// Halo/gateway symmetry on a generated substrate: every halo node of shard s
// is a gateway of the shard owning it, and that shard lists s as a neighbor.
func TestPlanShardsSymmetryOnClustered(t *testing.T) {
	g, regions := Clustered(DefaultClusterConfig(6, 6), 5)
	p, err := PlanShards(g, regions)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.NumShards; s++ {
		for _, v := range p.Halo(s) {
			owner := p.NodeShard[v]
			if owner == s {
				t.Fatalf("shard %d halo contains own node %d", s, v)
			}
			if !containsID(p.Gateways[owner], v) {
				t.Fatalf("halo node %d of shard %d is not a gateway of shard %d", v, s, owner)
			}
			if !containsInt(p.Neighbors[s], owner) || !containsInt(p.Neighbors[owner], s) {
				t.Fatalf("shards %d and %d share node %d but are not mutual neighbors", s, owner, v)
			}
		}
	}
}

func TestSubgraphPreservesPathCosts(t *testing.T) {
	g, regions := Clustered(DefaultClusterConfig(4, 6), 9)
	// Full-set extraction in ID order is an exact copy: finalize the parent
	// (the extract comes finalized) and compare every pairwise path cost and
	// hop count.
	all := make([]NodeID, g.N())
	for i := range all {
		all[i] = i
	}
	sub := Subgraph(g, all)
	g.Finalize()
	for a := 0; a < g.N(); a++ {
		for b := 0; b < g.N(); b++ {
			if ca, cb := g.PathCost(a, b), sub.PathCost(a, b); ca != cb {
				t.Fatalf("PathCost(%d,%d): parent %v, subgraph %v", a, b, ca, cb)
			}
			if ha, hb := g.Hops(a, b), sub.Hops(a, b); ha != hb {
				t.Fatalf("Hops(%d,%d): parent %d, subgraph %d", a, b, ha, hb)
			}
		}
	}
	// A single-region extract keeps intra-region costs no better than the
	// parent's (the parent may shortcut through other regions).
	reg := Subgraph(g, regions[0])
	for i := range regions[0] {
		for j := range regions[0] {
			pc, rc := g.PathCost(regions[0][i], regions[0][j]), reg.PathCost(i, j)
			if math.IsInf(rc, 1) {
				t.Fatalf("region extract disconnected at (%d,%d)", i, j)
			}
			if rc < pc-1e-12 {
				t.Fatalf("extract cost %v beats parent %v at (%d,%d)", rc, pc, i, j)
			}
		}
	}
}

// TestSubgraphMatchesIncremental: the extract is the graph New, AddNode and
// AddLink build over the listed nodes, each kept link added once from its
// lower local endpoint in local node order, then adjacency order.
func TestSubgraphMatchesIncremental(t *testing.T) {
	g, regions := Clustered(DefaultClusterConfig(4, 6), 5)
	nodes := append(append([]NodeID(nil), regions[2]...), regions[0]...)
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	local := make(map[NodeID]int, len(nodes))
	want := New(len(nodes))
	for i, v := range nodes {
		local[v] = i
		n := g.Node(v)
		want.AddNode(n.X, n.Y, n.Compute, n.Storage)
	}
	for i, v := range nodes {
		for _, u := range g.Neighbors(v) {
			if j, ok := local[u]; ok && i < j {
				r, _ := g.LinkRate(v, u)
				mustLink(t, want, i, j, r)
			}
		}
	}
	want.Finalize()
	got := Subgraph(g, nodes)
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Fatal("Subgraph's adjacency lists differ from the incremental build's")
	}
	if !reflect.DeepEqual(got.timeCost, want.timeCost) || !reflect.DeepEqual(got.timeNext, want.timeNext) ||
		!reflect.DeepEqual(got.hops, want.hops) || !reflect.DeepEqual(got.hopCost, want.hopCost) {
		t.Fatal("Subgraph's path tables differ from the incremental build's")
	}
}

func TestSubgraphPanics(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(0, 0, 1, 1)
	}
	mustPanic(t, "duplicate node", func() { Subgraph(g, []NodeID{0, 1, 1}) })
	mustPanic(t, "out-of-range node", func() { Subgraph(g, []NodeID{0, 5}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func containsID(xs []NodeID, v NodeID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
