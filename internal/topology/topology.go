// Package topology models the substrate edge network G(V, L) of the SoCL
// paper: edge servers with compute and storage capacities connected by
// wireless backhaul links whose transmission rate follows the Shannon
// capacity formula b(l) = B(l)·log2(1 + γ·g/N).
//
// The package precomputes, for every node pair, the minimum-transfer-time
// path (used for data-plane latency and for the harmonic-mean virtual link
// speed 𝔹(l') of Algorithm 1) and the minimum-hop path (used for the result
// return path π*(v_d, v_s) of the completion-time model).
package topology

import (
	"fmt"
	"math"
)

// NodeID identifies an edge server within a Graph. IDs are dense: the k-th
// added node has ID k.
type NodeID = int

// Node is an edge server v_k.
type Node struct {
	ID      NodeID
	X, Y    float64 // planar position, km (used by generators and mobility)
	Compute float64 // c(v_k), GFLOP/s
	Storage float64 // Φ(v_k), storage units
}

// Link is a physical communication link l_{a,b} between two edge servers.
// Rate is the effective Shannon transmission rate b(l) in GB/s; it is
// computed once at insertion time from the nominal bandwidth and SNR.
type Link struct {
	A, B NodeID
	Rate float64 // b(l) = B(l)·log2(1 + γ·g/N), GB/s
}

// ShannonRate returns the effective rate B·log2(1 + γ·g/N) of a link with
// nominal bandwidth bw, transmit power gamma, channel gain g and noise power
// n. Non-positive noise or bandwidth yields 0.
func ShannonRate(bw, gamma, g, n float64) float64 {
	if bw <= 0 || n <= 0 || gamma*g < 0 {
		return 0
	}
	return bw * math.Log2(1+gamma*g/n)
}

// edge is one direction of a link in an adjacency list. It keeps the
// transfer time per GB, 1/rate, computed once in AddLink; the rate itself
// lives in the graph's rate map.
type edge struct {
	to  int32
	inv float64
}

// Graph is a weighted undirected edge network. The zero value is unusable;
// construct with New and populate via AddNode/AddLink, then call Finalize
// (or use a generator from gen.go, which finalizes for you).
type Graph struct {
	nodes []Node
	adj   [][]edge
	rates map[[2]NodeID]float64

	// Precomputed by Finalize: row-major n×n tables, the entry of the pair
	// (a, b) at index a·n + b.
	finalized bool
	// timeCost[a·n+b] = Σ 1/b(l) over the minimum-transfer-time path from a
	// to b: the seconds needed to move one GB. +Inf if disconnected.
	timeCost []float64
	// timeNext[a·n+b] = next hop from a on the minimum-time path to b, or -1.
	timeNext []int32
	// hops[a·n+b] = number of links on the minimum-hop path, or -1.
	hops []int32
	// hopCost[a·n+b] = Σ 1/b(l) along the minimum-hop path (tie-broken by
	// transfer time); +Inf if disconnected. Used for d_out.
	hopCost []float64
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		adj:   make([][]edge, 0, n),
		rates: make(map[[2]NodeID]float64),
	}
}

// AddNode appends an edge server and returns its ID.
func (g *Graph) AddNode(x, y, compute, storage float64) NodeID {
	id := len(g.nodes)
	g.nodes = append(g.nodes, Node{ID: id, X: x, Y: y, Compute: compute, Storage: storage})
	g.adj = append(g.adj, nil)
	g.finalized = false
	return id
}

// AddLink inserts an undirected link with effective rate rate (GB/s).
// Adding a link with a non-positive rate, a self-loop, or an out-of-range
// endpoint returns an error. Re-adding an existing pair updates the rate.
func (g *Graph) AddLink(a, b NodeID, rate float64) error {
	if a == b {
		return fmt.Errorf("topology: self-loop on node %d", a)
	}
	if a < 0 || b < 0 || a >= len(g.nodes) || b >= len(g.nodes) {
		return fmt.Errorf("topology: link endpoints (%d,%d) out of range [0,%d)", a, b, len(g.nodes))
	}
	if rate <= 0 {
		return fmt.Errorf("topology: non-positive rate %v on link (%d,%d)", rate, a, b)
	}
	key := linkKey(a, b)
	inv := 1 / rate
	if _, exists := g.rates[key]; exists {
		g.rates[key] = rate
		for _, pair := range [2][2]NodeID{{a, b}, {b, a}} {
			for i := range g.adj[pair[0]] {
				if int(g.adj[pair[0]][i].to) == pair[1] {
					g.adj[pair[0]][i].inv = inv
				}
			}
		}
	} else {
		g.rates[key] = rate
		g.adj[a] = append(g.adj[a], edge{to: int32(b), inv: inv})
		g.adj[b] = append(g.adj[b], edge{to: int32(a), inv: inv})
	}
	g.finalized = false
	return nil
}

// Build returns the finalized graph that New, AddNode for every node in
// order (the ID fields are ignored: the k-th node gets ID k), AddLink for
// every link in order and Finalize would build — the same adjacency order,
// rates and tables — or AddLink's error for the first bad link. The rate map
// and the adjacency lists are sized up front.
func Build(nodes []Node, links []Link) (*Graph, error) {
	n := len(nodes)
	g := &Graph{
		nodes: make([]Node, n),
		adj:   make([][]edge, n),
		rates: make(map[[2]NodeID]float64, len(links)),
	}
	for k, nd := range nodes {
		nd.ID = k
		g.nodes[k] = nd
	}
	deg := make([]int, n)
	for _, l := range links {
		if l.A >= 0 && l.A < n && l.B >= 0 && l.B < n {
			deg[l.A]++
			deg[l.B]++
		}
	}
	// One backing array; each list is capped at its own span, so a later
	// AddLink that outgrows it reallocates instead of running into the next.
	all := make([]edge, 2*len(links))
	off := 0
	for k, d := range deg {
		g.adj[k] = all[off : off : off+d]
		off += d
	}
	for _, l := range links {
		if err := g.AddLink(l.A, l.B, l.Rate); err != nil {
			return nil, err
		}
	}
	g.Finalize()
	return g, nil
}

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Nodes returns a copy of the node slice.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Links returns all links (each undirected pair once).
func (g *Graph) Links() []Link {
	out := make([]Link, 0, len(g.rates))
	for k, r := range g.rates {
		out = append(out, Link{A: k[0], B: k[1], Rate: r})
	}
	return out
}

// LinkRate returns the direct-link rate b(l_{a,b}) and whether such a link
// exists.
func (g *Graph) LinkRate(a, b NodeID) (float64, bool) {
	r, ok := g.rates[linkKey(a, b)]
	return r, ok
}

// Degree returns the number of direct links incident to v (the ℋ(v) of
// Theorem 1).
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Neighbors returns the IDs of nodes directly linked to v.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	out := make([]NodeID, len(g.adj[v]))
	for i, e := range g.adj[v] {
		out[i] = int(e.to)
	}
	return out
}

// Finalize computes all-pairs minimum-transfer-time paths (Dijkstra per
// source over weight 1/rate) and minimum-hop paths (BFS with transfer-time
// tie-breaking). It must be called after topology edits and before any query;
// queries on a non-finalized graph panic. Generators return finalized graphs.
//
// Every source reuses one scratch and writes straight into its table rows.
func (g *Graph) Finalize() {
	n := len(g.nodes)
	g.timeCost = make([]float64, n*n)
	g.timeNext = make([]int32, n*n)
	g.hops = make([]int32, n*n)
	g.hopCost = make([]float64, n*n)
	pushes := 1 // a source pushes itself and then once per improving relaxation
	for _, es := range g.adj {
		pushes += len(es)
	}
	sc := pathScratch{
		pq:    costHeap{a: make([]item, 0, pushes)},
		prev:  make([]int32, n),
		done:  make([]bool, n),
		order: make([]int32, 0, n),
	}
	for s := 0; s < n; s++ {
		row := s * n
		g.dijkstra(s, g.timeCost[row:row+n], g.timeNext[row:row+n], &sc)
		g.bfsHops(s, g.hops[row:row+n], g.hopCost[row:row+n], &sc)
	}
	g.finalized = true
}

func (g *Graph) checkFinalized() {
	if !g.finalized {
		panic("topology: query on non-finalized graph; call Finalize()")
	}
}

// pair is the table index of the pair (a, b) on a finalized graph. An
// out-of-range b is rejected here; an out-of-range a lands outside the table.
func (g *Graph) pair(a, b NodeID) int {
	g.checkFinalized()
	n := len(g.nodes)
	if uint(b) >= uint(n) {
		panic("topology: node ID out of range")
	}
	return a*n + b
}

// pathScratch is what Finalize's per-source searches share: the Dijkstra
// heap, predecessor and settled flags, and the order nodes settle in (which
// doubles as BFS's FIFO queue).
type pathScratch struct {
	pq    costHeap
	prev  []int32
	done  []bool
	order []int32
}

// dijkstra fills dist with the minimal Σ 1/rate from source s to every node
// and next with the first hop from s on that path (-1 for s itself and for
// unreachable nodes).
func (g *Graph) dijkstra(s NodeID, dist []float64, next []int32, sc *pathScratch) {
	prev, done := sc.prev, sc.done
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
		done[i] = false
	}
	dist[s] = 0
	order := sc.order[:0]
	pq := &sc.pq
	pq.a = pq.a[:0]
	pq.push(item{node: s, cost: 0})
	for pq.len() > 0 {
		it := pq.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		order = append(order, int32(u))
		du := dist[u]
		for _, e := range g.adj[u] {
			if c := du + e.inv; c < dist[e.to] {
				dist[e.to] = c
				prev[e.to] = int32(u)
				pq.push(item{node: int(e.to), cost: c})
			}
		}
	}
	sc.order = order
	// Convert the predecessor tree into a next-hop-from-s table. A node's
	// predecessor settles before it does, so walking the settle order finds
	// every predecessor's first hop already written.
	for i := range next {
		next[i] = -1
	}
	for _, v := range order[1:] {
		if p := prev[v]; int(p) == s {
			next[v] = v
		} else {
			next[v] = next[p]
		}
	}
}

// bfsHops fills hops with the minimum hop counts from s (-1 when
// unreachable), and cost with the Σ 1/rate along a minimum-hop path chosen to
// minimize transfer time among equal-hop paths. It visits nodes in FIFO
// order, which is level by level, each level in discovery order.
func (g *Graph) bfsHops(s NodeID, hops []int32, cost []float64, sc *pathScratch) {
	for i := range hops {
		hops[i] = -1
		cost[i] = math.Inf(1)
	}
	hops[s] = 0
	cost[s] = 0
	queue := append(sc.order[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		hu, cu := hops[u], cost[u]
		for _, e := range g.adj[u] {
			switch v := e.to; hops[v] {
			case -1:
				hops[v] = hu + 1
				cost[v] = cu + e.inv
				queue = append(queue, v)
			case hu + 1:
				if c := cu + e.inv; c < cost[v] {
					cost[v] = c
				}
			}
		}
	}
	sc.order = queue
}

// PathCost returns the seconds-per-GB of the minimum-transfer-time path from
// a to b: Σ_{l ∈ π(a,b)} 1/b(l). It is 0 when a == b and +Inf when a and b
// are disconnected.
func (g *Graph) PathCost(a, b NodeID) float64 {
	return g.timeCost[g.pair(a, b)]
}

// VirtualSpeed returns the harmonic-mean channel speed 𝔹(l'_{a,b}) of the
// virtual link between a and b: 1 / Σ 1/b(l) along the minimum-time path.
// It is +Inf when a == b and 0 when disconnected.
func (g *Graph) VirtualSpeed(a, b NodeID) float64 {
	c := g.PathCost(a, b)
	if c == 0 {
		return math.Inf(1)
	}
	return 1 / c
}

// TransferTime returns the time (s) to move r GB from a to b along the
// minimum-time path: r · PathCost(a, b). Zero when a == b.
func (g *Graph) TransferTime(a, b NodeID, r float64) float64 {
	return r * g.PathCost(a, b)
}

// Hops returns the number of links on the minimum-hop path from a to b, or
// -1 when disconnected.
func (g *Graph) Hops(a, b NodeID) int {
	return int(g.hops[g.pair(a, b)])
}

// HopPathCost returns Σ 1/b(l) along the minimum-hop path π*(a,b) (the
// return-path metric for d_out). +Inf when disconnected, 0 when a == b.
func (g *Graph) HopPathCost(a, b NodeID) float64 {
	return g.hopCost[g.pair(a, b)]
}

// Path reconstructs the minimum-transfer-time path from a to b, inclusive of
// both endpoints. It returns nil when disconnected and [a] when a == b.
func (g *Graph) Path(a, b NodeID) []NodeID {
	ab := g.pair(a, b)
	if a == b {
		return []NodeID{a}
	}
	if math.IsInf(g.timeCost[ab], 1) {
		return nil
	}
	n := len(g.nodes)
	path := []NodeID{a}
	cur := a
	for cur != b {
		cur = int(g.timeNext[cur*n+b])
		if cur == -1 {
			return nil
		}
		path = append(path, cur)
	}
	return path
}

// Connected reports whether every node can reach every other node.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	comp := g.Components()
	return len(comp) == 1
}

// Components returns the connected components of the graph as slices of
// node IDs, each sorted ascending, ordered by smallest member.
func (g *Graph) Components() [][]NodeID {
	n := len(g.nodes)
	seen := make([]bool, n)
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, int(e.to))
				}
			}
		}
		sortIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

func sortIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// TotalStorage returns Σ_k Φ(v_k).
func (g *Graph) TotalStorage() float64 {
	s := 0.0
	for _, n := range g.nodes {
		s += n.Storage
	}
	return s
}

// item / costHeap: a minimal binary min-heap for Dijkstra, avoiding the
// container/heap interface boilerplate on the hot path.
type item struct {
	node NodeID
	cost float64
}

type costHeap struct{ a []item }

func (h *costHeap) len() int { return len(h.a) }

// push and pop move the sifted item through a hole instead of swapping it
// along its path: the comparisons, and so the resulting array, are the
// swapping heap's exactly.
func (h *costHeap) push(it item) {
	h.a = append(h.a, it)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].cost <= it.cost {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = it
}

func (h *costHeap) pop() item {
	a := h.a
	top := a[0]
	last := len(a) - 1
	x := a[last]
	a = a[:last]
	h.a = a
	if last == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		small, cost := i, x.cost
		if a[l].cost < cost {
			small, cost = l, a[l].cost
		}
		if r := l + 1; r < last && a[r].cost < cost {
			small = r
		}
		if small == i {
			break
		}
		a[i] = a[small]
		i = small
	}
	a[i] = x
	return top
}
