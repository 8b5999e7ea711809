package msvc

import "slices"

// Index answers, from one O(Σ|chain|) pass over the requests, every question
// Algorithms 1–5 ask of the request population that does not depend on a
// placement: per-(service, node) demand, the demand-node set V(m_i), the used
// services, and which services are adjacent in some chain. It is the table
// form of the Workload scan methods of the same names, which remain the
// reference the tests compare it against.
//
// An Index is a snapshot: it is built for one solve and never cached on the
// Workload, whose exported Requests slice callers are free to mutate or
// re-wrap. Its size is O(|M|·|V|), independent of the number of requests.
// Returned slices are shared and must not be modified.
type Index struct {
	nodes  int
	demand []int       // demand[s·|V|+k] = Workload.DemandCount(k, s)
	sites  [][]int     // sites[s] = Workload.NodesRequesting(s), ascending
	used   []ServiceID // Workload.ServicesUsed(), ascending
	adj    []bool      // adj[a·|M|+b]: a and b are consecutive in some chain
}

// NewIndex indexes w over a substrate of numNodes nodes. Every request must
// be valid for (w.Catalog.Len(), numNodes), as Request.Validate checks.
func NewIndex(w *Workload, numNodes int) *Index {
	m := w.Catalog.Len()
	ix := &Index{
		nodes:  numNodes,
		demand: make([]int, m*numNodes),
		sites:  make([][]int, m),
		adj:    make([]bool, m*m),
	}
	for h := range w.Requests {
		req := &w.Requests[h]
		for t, s := range req.Chain {
			if t > 0 {
				p := req.Chain[t-1]
				ix.adj[p*m+s], ix.adj[s*m+p] = true, true
			}
			// Uses() counts a request once per service however often its
			// chain repeats it: only the first occurrence adds demand.
			if !slices.Contains(req.Chain[:t], s) {
				ix.demand[s*numNodes+req.Home]++
			}
		}
	}
	total := 0
	for _, d := range ix.demand {
		if d > 0 {
			total++
		}
	}
	flat := make([]int, 0, total) // one backing array for every V(m_i)
	for s := 0; s < m; s++ {
		start := len(flat)
		for k, d := range ix.DemandRow(s) {
			if d > 0 {
				flat = append(flat, k)
			}
		}
		if len(flat) > start {
			ix.sites[s] = flat[start:len(flat):len(flat)]
			ix.used = append(ix.used, s)
		}
	}
	return ix
}

// DemandCount returns |𝕌_{v_k}^{m_i}|, as Workload.DemandCount does.
func (ix *Index) DemandCount(k int, s ServiceID) int { return ix.demand[s*ix.nodes+k] }

// DemandRow returns service s's demand at every node: DemandRow(s)[k] ==
// DemandCount(k, s).
func (ix *Index) DemandRow(s ServiceID) []int {
	return ix.demand[s*ix.nodes : (s+1)*ix.nodes : (s+1)*ix.nodes]
}

// NodesRequesting returns V(m_i), ascending, as Workload.NodesRequesting does.
func (ix *Index) NodesRequesting(s ServiceID) []int { return ix.sites[s] }

// ServicesUsed returns the services appearing in any request, ascending, as
// Workload.ServicesUsed does.
func (ix *Index) ServicesUsed() []ServiceID { return ix.used }

// ChainAdjacent reports whether a and b are consecutive, in either order, in
// at least one request chain.
func (ix *Index) ChainAdjacent(a, b ServiceID) bool { return ix.adj[a*len(ix.sites)+b] }
