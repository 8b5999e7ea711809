package model

import "fmt"

// PlacementIndex wraps a Placement with cached per-service candidate node
// lists and reusable routing scratch space. It is the read side of the
// incremental routing engine: Placement.NodesOf allocates and scans the full
// node row on every call, which dominates the combine hot path where the
// same candidate lists are consulted thousands of times between mutations.
// The index rebuilds a service's list lazily after a mutation through Set
// (or a wholesale Rebind), so unchanged services cost a slice read.
//
// Coherence: a write that bypasses Set/Rebind leaves the cache stale and
// silently corrupts every routed result. The mistake that actually happens is
// not a raw p.X[i][k] = v but a Placement.Set on a placement some index
// aliases — which no syntactic check can tell from a legitimate one — so the
// guard is dynamic: Epoch plus CheckCoherent under the soclinvariants build
// (invariant.IndexWatch at every combine phase boundary), and the
// incremental ≡ naive differential tests of combine and model.
//
// An index is single-goroutine: NodesOf lazily rebuilds dirty entries, so
// even a read may write. Returned slices are owned by the index: they are
// valid until the service's next invalidation and must not be modified.
type PlacementIndex struct {
	p     Placement
	nodes [][]int
	dirty []bool
	// epoch counts mutations observed through the index (Set, Rebind). It
	// lets invariant checkers and long-lived consumers detect staleness in
	// O(1): a cached artifact stamped with Epoch() e is coherent with the
	// index iff Epoch() still equals e — *provided* every placement write
	// went through the index, which CheckCoherent verifies.
	epoch uint64
}

// NewPlacementIndex builds an index over p. The index aliases p's backing
// arrays: mutations must go through the index's Set (or be followed by
// Rebind) so the cache stays coherent.
func NewPlacementIndex(p Placement) *PlacementIndex {
	m := len(p.X)
	ix := &PlacementIndex{
		p:     p,
		nodes: make([][]int, m),
		dirty: make([]bool, m),
	}
	for i := range ix.dirty {
		ix.dirty[i] = true
	}
	return ix
}

// Placement returns the underlying placement.
func (ix *PlacementIndex) Placement() Placement { return ix.p }

// Rebind points the index at a (possibly different) placement and
// invalidates every cached list. Used after snapshot restores, where the
// placement is replaced wholesale.
func (ix *PlacementIndex) Rebind(p Placement) {
	ix.p = p
	if len(p.X) != len(ix.nodes) {
		ix.nodes = make([][]int, len(p.X))
		ix.dirty = make([]bool, len(p.X))
	}
	for i := range ix.dirty {
		ix.dirty[i] = true
	}
	ix.epoch++
}

// Set deploys (or removes) service i on node k and invalidates i's list.
func (ix *PlacementIndex) Set(i, k int, val bool) {
	ix.p.X[i][k] = val
	ix.dirty[i] = true
	ix.epoch++
}

// Epoch returns the index's mutation counter: it increases monotonically on
// every Set and Rebind and never otherwise. Equal epochs across two reads
// guarantee no mutation went through the index in between.
func (ix *PlacementIndex) Epoch() uint64 { return ix.epoch }

// Has reports whether service i is deployed on node k.
func (ix *PlacementIndex) Has(i, k int) bool { return ix.p.X[i][k] }

// Count returns the number of instances of service i.
func (ix *PlacementIndex) Count(i int) int { return len(ix.NodesOf(i)) }

// NodesOf returns the nodes hosting service i, ascending. The slice is
// cached: it is reused across calls and only rebuilt after i was mutated.
func (ix *PlacementIndex) NodesOf(i int) []int {
	if ix.dirty[i] {
		out := ix.nodes[i][:0]
		for k, on := range ix.p.X[i] {
			if on {
				out = append(out, k)
			}
		}
		ix.nodes[i] = out
		ix.dirty[i] = false
	}
	return ix.nodes[i]
}

// CheckCoherent verifies every clean cached candidate list against a fresh
// scan of its placement row, catching exactly the staleness class behind
// PR 1: a raw write to Placement.X that bypassed Set/Rebind. Dirty entries
// are coherent by definition (the next NodesOf rebuilds them). O(M·N) — for
// the soclinvariants build and tests, not hot paths.
func (ix *PlacementIndex) CheckCoherent() error {
	for i := range ix.nodes {
		if ix.dirty[i] {
			continue
		}
		row := ix.p.X[i]
		j := 0
		for k, on := range row {
			if !on {
				continue
			}
			if j >= len(ix.nodes[i]) || ix.nodes[i][j] != k {
				return fmt.Errorf("model: PlacementIndex stale for service %d: cached %v disagrees with placement at node %d (epoch %d)", i, ix.nodes[i], k, ix.epoch)
			}
			j++
		}
		if j != len(ix.nodes[i]) {
			return fmt.Errorf("model: PlacementIndex stale for service %d: cached %v has %d extra node(s) (epoch %d)", i, ix.nodes[i], len(ix.nodes[i])-j, ix.epoch)
		}
	}
	return nil
}

// RouteScratch holds the dynamic-programming buffers of RouteOptimal so
// repeated routing calls (one per request per combine round) reuse memory
// instead of allocating O(L·|V|) per call. A scratch is single-goroutine.
type RouteScratch struct {
	cost, next []float64
	back       [][]int
	layers     [][]int
}

func (sc *RouteScratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

func (sc *RouteScratch) backRow(t, n int) []int {
	for len(sc.back) <= t {
		sc.back = append(sc.back, nil)
	}
	if cap(sc.back[t]) < n {
		sc.back[t] = make([]int, n)
	}
	sc.back[t] = sc.back[t][:n]
	return sc.back[t]
}

func (sc *RouteScratch) layerBuf(n int) [][]int {
	if cap(sc.layers) < n {
		sc.layers = make([][]int, n)
	}
	sc.layers = sc.layers[:n]
	return sc.layers
}

// nodeLister abstracts the candidate-node source of the routing routines:
// either a raw Placement (an allocating scan: the exported one-shot
// routers) or a PlacementIndex (cached lists: the evaluators). Both return
// the hosting nodes ascending, so the two are bit-identical.
type nodeLister interface {
	NodesOf(i int) []int
}
