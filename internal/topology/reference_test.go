package topology

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// refTables are the all-pairs tables as the per-row searches below compute
// them: one freshly allocated Dijkstra and BFS per source, each reading the
// link rate from the rate map and dividing, and a BFS that builds each level
// in a slice of its own. Finalize must reproduce them bit for bit.
type refTables struct {
	timeCost [][]float64
	timeNext [][]NodeID
	hops     [][]int
	hopCost  [][]float64
}

func referenceTables(g *Graph) refTables {
	n := len(g.nodes)
	t := refTables{
		timeCost: make([][]float64, n),
		timeNext: make([][]NodeID, n),
		hops:     make([][]int, n),
		hopCost:  make([][]float64, n),
	}
	for s := 0; s < n; s++ {
		t.timeCost[s], t.timeNext[s] = refDijkstra(g, s)
		t.hops[s], t.hopCost[s] = refBFSHops(g, s)
	}
	return t
}

// refRate is the rate of the link behind one adjacency entry.
func refRate(g *Graph, u NodeID, e edge) float64 {
	r, ok := g.LinkRate(u, int(e.to))
	if !ok {
		panic(fmt.Sprintf("adjacency entry (%d,%d) has no rate", u, e.to))
	}
	return r
}

func refDijkstra(g *Graph, s NodeID) ([]float64, []NodeID) {
	n := len(g.nodes)
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	pq := &refHeap{}
	pq.push(item{node: s, cost: 0})
	for pq.len() > 0 {
		it := pq.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			to := int(e.to)
			c := dist[u] + 1/refRate(g, u, e)
			if c < dist[to] {
				dist[to] = c
				prev[to] = u
				pq.push(item{node: to, cost: c})
			}
		}
	}
	// Convert predecessor tree into next-hop-from-s table.
	next := make([]NodeID, n)
	for v := 0; v < n; v++ {
		if v == s || prev[v] == -1 {
			next[v] = -1
			continue
		}
		cur := v
		for prev[cur] != s {
			cur = prev[cur]
		}
		next[v] = cur
	}
	return dist, next
}

func refBFSHops(g *Graph, s NodeID) ([]int, []float64) {
	n := len(g.nodes)
	hops := make([]int, n)
	cost := make([]float64, n)
	for i := range hops {
		hops[i] = -1
		cost[i] = math.Inf(1)
	}
	hops[s] = 0
	cost[s] = 0
	frontier := []NodeID{s}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			for _, e := range g.adj[u] {
				to := int(e.to)
				c := cost[u] + 1/refRate(g, u, e)
				switch {
				case hops[to] == -1:
					hops[to] = hops[u] + 1
					cost[to] = c
					next = append(next, to)
				case hops[to] == hops[u]+1 && c < cost[to]:
					cost[to] = c
				}
			}
		}
		frontier = next
	}
	return hops, cost
}

// refHeap is the swapping binary min-heap the reference Dijkstra runs on;
// costHeap must pop in its order exactly, since the first of two equal-cost
// entries to pop decides a tied next hop.
type refHeap struct{ a []item }

func (h *refHeap) len() int { return len(h.a) }

func (h *refHeap) push(it item) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].cost <= h.a[i].cost {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *refHeap) pop() item {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l].cost < h.a[small].cost {
			small = l
		}
		if r < len(h.a) && h.a[r].cost < h.a[small].cost {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}

// path reconstructs the minimum-transfer-time path as Graph.Path does, over
// the reference tables.
func (t refTables) path(a, b NodeID) []NodeID {
	if a == b {
		return []NodeID{a}
	}
	if math.IsInf(t.timeCost[a][b], 1) {
		return nil
	}
	path := []NodeID{a}
	for cur := a; cur != b; {
		cur = t.timeNext[cur][b]
		if cur == -1 {
			return nil
		}
		path = append(path, cur)
	}
	return path
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstReference compares every pairwise query of the finalized g with
// the reference tables, bitwise.
func checkAgainstReference(t *testing.T, name string, g *Graph) {
	t.Helper()
	ref := referenceTables(g)
	n := g.N()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := g.PathCost(a, b), ref.timeCost[a][b]; !sameBits(got, want) {
				t.Fatalf("%s: PathCost(%d,%d) = %v, reference %v", name, a, b, got, want)
			}
			if got, want := g.Hops(a, b), ref.hops[a][b]; got != want {
				t.Fatalf("%s: Hops(%d,%d) = %d, reference %d", name, a, b, got, want)
			}
			if got, want := g.HopPathCost(a, b), ref.hopCost[a][b]; !sameBits(got, want) {
				t.Fatalf("%s: HopPathCost(%d,%d) = %v, reference %v", name, a, b, got, want)
			}
			wantSpeed := math.Inf(1)
			if c := ref.timeCost[a][b]; c != 0 {
				wantSpeed = 1 / c
			}
			if got := g.VirtualSpeed(a, b); !sameBits(got, wantSpeed) {
				t.Fatalf("%s: VirtualSpeed(%d,%d) = %v, reference %v", name, a, b, got, wantSpeed)
			}
			if got, want := g.Path(a, b), ref.path(a, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Path(%d,%d) = %v, reference %v", name, a, b, got, want)
			}
		}
	}
}

// linksInAdjacencyOrder lists g's links as its adjacency lists hold them —
// node order, then insertion order, each link once from its lower endpoint —
// so that a rebuild through Build keeps every tie where g has it.
func linksInAdjacencyOrder(g *Graph) []Link {
	var out []Link
	for a := range g.adj {
		for _, e := range g.adj[a] {
			if b := int(e.to); a < b {
				r, _ := g.LinkRate(a, b)
				out = append(out, Link{A: a, B: b, Rate: r})
			}
		}
	}
	return out
}

// namedGraph is one generated graph of the differential test.
type namedGraph struct {
	name string
	g    *Graph
}

// maskedVariants derives the fault shapes the chaos layer builds from g:
// crashed nodes (kept, but without links), links scaled by 0.25, every rate
// tied to one value, and the graph cut into two components.
func maskedVariants(t *testing.T, g *Graph) []namedGraph {
	t.Helper()
	n := g.N()
	links := linksInAdjacencyOrder(g)
	variant := func(name string, keep func(l Link) (Link, bool)) namedGraph {
		var ls []Link
		for _, l := range links {
			if l2, ok := keep(l); ok {
				ls = append(ls, l2)
			}
		}
		h, err := Build(g.Nodes(), ls)
		if err != nil {
			t.Fatal(err)
		}
		return namedGraph{name, h}
	}
	return []namedGraph{
		variant("crashed", func(l Link) (Link, bool) {
			return l, l.A%3 != 1 && l.B%3 != 1
		}),
		variant("scaled", func(l Link) (Link, bool) {
			if (l.A+l.B)%2 == 0 {
				l.Rate *= 0.25
			}
			return l, true
		}),
		variant("tied", func(l Link) (Link, bool) {
			l.Rate = 40
			return l, true
		}),
		variant("split", func(l Link) (Link, bool) {
			return l, (l.A < n/2) == (l.B < n/2)
		}),
	}
}

// TestFinalizeMatchesReference holds the flat tables against the per-row
// reference searches on generated graphs of 1 to 100 nodes and on the
// masked shapes the fault layer derives from them.
func TestFinalizeMatchesReference(t *testing.T) {
	cfg := DefaultGenConfig()
	for _, n := range []int{1, 2, 3, 5, 8, 13, 24, 41, 64, 100} {
		for _, seed := range []int64{1, 2, 3} {
			graphs := []namedGraph{
				{"geometric", RandomGeometric(n, 0.3, cfg, seed)},
				{"grid", Grid((n+9)/10, min(n, 10), cfg, seed)},
			}
			if n >= 8 { // a hub links to up to half the ring plus three
				graphs = append(graphs, namedGraph{"ringhubs", RingHubs(n-n/4, n/4, cfg, seed)})
			}
			if n >= 4 {
				regions := 2
				if n >= 24 {
					regions = 4
				}
				c, _ := Clustered(DefaultClusterConfig(regions, n/regions), seed)
				c.Finalize()
				graphs = append(graphs, namedGraph{"clustered", c})
			}
			for _, ng := range graphs {
				name := fmt.Sprintf("%s n=%d seed=%d", ng.name, ng.g.N(), seed)
				checkAgainstReference(t, name, ng.g)
				for _, v := range maskedVariants(t, ng.g) {
					checkAgainstReference(t, name+" "+v.name, v.g)
				}
			}
		}
	}
}

// TestBuildMatchesIncremental: Build is New, AddNode, AddLink and Finalize
// in that order — adjacency order, rates, the link set, a repeated link's
// update, and the errors.
func TestBuildMatchesIncremental(t *testing.T) {
	base := RandomGeometric(30, 0.3, DefaultGenConfig(), 7)
	nodes := base.Nodes()
	links := linksInAdjacencyOrder(base)
	// Reverse the link list and repeat two links with new rates, one of them
	// with its endpoints swapped, so order and updates both matter.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	links = append(links,
		Link{A: links[3].B, B: links[3].A, Rate: 11.5},
		Link{A: links[0].A, B: links[0].B, Rate: 77.25})

	inc := New(len(nodes))
	for _, nd := range nodes {
		inc.AddNode(nd.X, nd.Y, nd.Compute, nd.Storage)
	}
	for _, l := range links {
		if err := inc.AddLink(l.A, l.B, l.Rate); err != nil {
			t.Fatal(err)
		}
	}
	inc.Finalize()

	shuffled := append([]Node(nil), nodes...)
	for k := range shuffled {
		shuffled[k].ID = 99 // ignored: the k-th node gets ID k
	}
	built, err := Build(shuffled, links)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built.Nodes(), inc.Nodes()) {
		t.Fatal("Build's nodes differ")
	}
	for v := range inc.adj {
		if !reflect.DeepEqual(built.adj[v], inc.adj[v]) {
			t.Fatalf("adjacency of %d: Build %v, incremental %v", v, built.adj[v], inc.adj[v])
		}
	}
	if r, _ := built.LinkRate(links[3].A, links[3].B); r != 11.5 {
		t.Fatalf("repeated link keeps rate %v, want the update 11.5", r)
	}
	for a := 0; a < inc.N(); a++ {
		for b := 0; b < inc.N(); b++ {
			ri, oki := inc.LinkRate(a, b)
			rb, okb := built.LinkRate(a, b)
			if oki != okb || !sameBits(ri, rb) {
				t.Fatalf("LinkRate(%d,%d): Build (%v,%v), incremental (%v,%v)", a, b, rb, okb, ri, oki)
			}
		}
	}
	key := func(ls []Link) []Link {
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].A != ls[j].A {
				return ls[i].A < ls[j].A
			}
			return ls[i].B < ls[j].B
		})
		return ls
	}
	if !reflect.DeepEqual(key(built.Links()), key(inc.Links())) {
		t.Fatal("Build's link set differs")
	}
	if !reflect.DeepEqual(built.timeCost, inc.timeCost) || !reflect.DeepEqual(built.timeNext, inc.timeNext) ||
		!reflect.DeepEqual(built.hops, inc.hops) || !reflect.DeepEqual(built.hopCost, inc.hopCost) {
		t.Fatal("Build's path tables differ")
	}
	checkAgainstReference(t, "built", built)

	// A graph built empty, and one extended by AddLink after Build.
	if g, err := Build(nil, nil); err != nil || g.N() != 0 || !g.Connected() {
		t.Fatalf("empty Build: %v, %v", g, err)
	}
	ext, err := Build(nodes[:3], []Link{{A: 0, B: 1, Rate: 10}})
	if err != nil {
		t.Fatal(err)
	}
	mustLink(t, ext, 0, 2, 20)
	mustLink(t, ext, 1, 2, 30)
	ext.Finalize()
	if got := ext.Neighbors(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("neighbors of 0 after extending a built graph: %v", got)
	}
	if got := ext.Neighbors(1); !reflect.DeepEqual(got, []NodeID{0, 2}) {
		t.Fatalf("neighbors of 1 after extending a built graph: %v", got)
	}

	// The errors are AddLink's, for the first bad link.
	for _, bad := range []Link{{A: 0, B: 0, Rate: 5}, {A: 0, B: 7, Rate: 5}, {A: -1, B: 1, Rate: 5},
		{A: 0, B: 1, Rate: 0}, {A: 0, B: 1, Rate: -3}} {
		g := New(3)
		for i := 0; i < 3; i++ {
			g.AddNode(0, 0, 1, 1)
		}
		want := g.AddLink(bad.A, bad.B, bad.Rate)
		_, got := Build(nodes[:3], []Link{{A: 1, B: 2, Rate: 4}, bad, {A: 0, B: 2, Rate: 4}})
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("link %+v: Build error %v, AddLink error %v", bad, got, want)
		}
	}
}
