package msvc

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
	"repro/internal/topology"
)

// WorkloadConfig controls request generation. Data volumes follow the
// paper's ranges ([1,80] GB per chain edge); ingress/egress volumes are
// smaller since they carry user payloads rather than inter-service state.
// The json tags are the "workload" block of a config.Scenario file.
type WorkloadConfig struct {
	NumUsers int `json:"num_users"`

	EdgeDataMin float64 `json:"edge_data_min"` // r_{m_i→m_j} range, GB
	EdgeDataMax float64 `json:"edge_data_max"`
	InDataMin   float64 `json:"in_data_min"` // r_in range, GB
	InDataMax   float64 `json:"in_data_max"`
	OutDataMin  float64 `json:"out_data_min"` // r_out range, GB
	OutDataMax  float64 `json:"out_data_max"`

	// Hotspot concentrates user homes: fraction Hotspot of users lands on
	// the HotspotNodes lowest-ID nodes (the stadium crowd); the rest are
	// uniform. Hotspot = 0 gives a uniform distribution.
	Hotspot      float64 `json:"hotspot"`
	HotspotNodes int     `json:"hotspot_nodes"`

	// DeadlineSlack sets 𝒟_h^max = DeadlineSlack × (a pessimistic serial
	// latency estimate for the chain). 0 disables deadlines (+Inf).
	DeadlineSlack float64 `json:"deadline_slack"`

	// TruncateProb is the per-request probability of truncating a sampled
	// flow by one trailing service (mimicking abandoned journeys and giving
	// trace diversity). Applied at most twice and never below length 1.
	TruncateProb float64 `json:"truncate_prob"`
}

// DefaultWorkloadConfig returns paper-aligned generation parameters for n
// users.
func DefaultWorkloadConfig(n int) WorkloadConfig {
	return WorkloadConfig{
		NumUsers:    n,
		EdgeDataMin: 1, EdgeDataMax: 80,
		InDataMin: 1, InDataMax: 10,
		OutDataMin: 1, OutDataMax: 10,
		Hotspot:       0.4,
		HotspotNodes:  3,
		DeadlineSlack: 5,
		TruncateProb:  0.3,
	}
}

// Workload couples a catalog with a generated request population over a
// concrete topology.
type Workload struct {
	Catalog  *Catalog
	Requests []Request
}

// GenerateWorkload draws cfg.NumUsers requests over graph g using chains
// sampled from the catalog's flows. All randomness derives from seed.
func GenerateWorkload(cat *Catalog, g *topology.Graph, cfg WorkloadConfig, seed int64) (*Workload, error) {
	if cat.Len() == 0 {
		return nil, fmt.Errorf("msvc: empty catalog")
	}
	if len(cat.Flows()) == 0 {
		return nil, fmt.Errorf("msvc: catalog has no flows to sample")
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("msvc: empty topology")
	}
	if cfg.NumUsers < 0 {
		return nil, fmt.Errorf("msvc: negative user count %d", cfg.NumUsers)
	}
	r := stats.NewRand(stats.SplitSeed(seed, "msvc/workload"))
	flows := cat.Flows()

	// Pessimistic per-GB transfer estimate for deadline scaling: the worst
	// finite pairwise path cost in the graph. Only computed when deadlines
	// are enabled — the O(|V|²) scan needs a finalized graph, and disabling
	// deadlines is what lets the sharded pipeline generate workloads over
	// huge unfinalized clustered substrates.
	worstPath := 0.0
	minCompute := math.Inf(1)
	if cfg.DeadlineSlack > 0 {
		for a := 0; a < g.N(); a++ {
			for b := 0; b < g.N(); b++ {
				if c := g.PathCost(a, b); !math.IsInf(c, 1) && c > worstPath {
					worstPath = c
				}
			}
		}
		for _, n := range g.Nodes() {
			if n.Compute < minCompute {
				minCompute = n.Compute
			}
		}
	}

	w := &Workload{Catalog: cat, Requests: make([]Request, 0, cfg.NumUsers)}
	// Chains and edge data are gathered in two buffers, sized for the mean
	// flow, and copied at the end into one exact array each: two objects a
	// workload for the collector to mark, not two a request.
	steps := 0
	for _, f := range flows {
		steps += len(f)
	}
	chainBuf := make([]ServiceID, 0, cfg.NumUsers*steps/len(flows))
	edgeBuf := make([]float64, 0, cap(chainBuf))
	hot := cfg.HotspotNodes
	if hot <= 0 || hot > g.N() {
		hot = g.N()
	}
	for h := 0; h < cfg.NumUsers; h++ {
		// Home node: hotspot or uniform.
		var home int
		if r.Float64() < cfg.Hotspot {
			home = r.Intn(hot)
		} else {
			home = r.Intn(g.N())
		}

		// Chain: sample a flow, maybe truncate.
		base := flows[r.Intn(len(flows))]
		n := len(base)
		for cut := 0; cut < 2 && n > 1 && r.Float64() < cfg.TruncateProb; cut++ {
			n--
		}
		chainBuf = append(chainBuf, base[:n]...)
		chain := chainBuf[len(chainBuf)-n:]

		req := Request{
			ID:      h,
			Home:    home,
			Chain:   chain,
			DataIn:  stats.UniformIn(r, cfg.InDataMin, cfg.InDataMax),
			DataOut: stats.UniformIn(r, cfg.OutDataMin, cfg.OutDataMax),
		}
		edgeBuf = slices.Grow(edgeBuf, n-1)[:len(edgeBuf)+n-1]
		req.EdgeData = edgeBuf[len(edgeBuf)-(n-1):]
		for i := range req.EdgeData {
			req.EdgeData[i] = stats.UniformIn(r, cfg.EdgeDataMin, cfg.EdgeDataMax)
		}

		if cfg.DeadlineSlack > 0 {
			est := req.DataIn*worstPath + req.DataOut*worstPath
			for i, s := range chain {
				est += cat.Service(s).Compute / minCompute
				if i > 0 {
					est += req.EdgeData[i-1] * worstPath
				}
			}
			req.Deadline = cfg.DeadlineSlack * est
		} else {
			req.Deadline = math.Inf(1)
		}

		if err := req.Validate(cat.Len(), g.N()); err != nil {
			return nil, err
		}
		w.Requests = append(w.Requests, req)
	}
	chains := append(make([]ServiceID, 0, len(chainBuf)), chainBuf...)
	edges := append(make([]float64, 0, len(edgeBuf)), edgeBuf...)
	for h := range w.Requests {
		req := &w.Requests[h]
		n := len(req.Chain)
		req.Chain, chains = chains[:n:n], chains[n:]
		req.EdgeData, edges = edges[:n-1:n-1], edges[n-1:]
	}
	return w, nil
}

// DemandCount returns |𝕌_{v_k}^{m_i}|: the number of requests homed at node
// k whose chain contains service s. Like NodesRequesting and ServicesUsed it
// scans every request; code that asks more than once builds an Index.
func (w *Workload) DemandCount(k int, s ServiceID) int {
	n := 0
	for h := range w.Requests {
		if r := &w.Requests[h]; r.Home == k && r.Uses(s) {
			n++
		}
	}
	return n
}

// NodesRequesting returns the sorted node IDs hosting at least one request
// that uses service s — the V(m_i) node set of Algorithm 1.
func (w *Workload) NodesRequesting(s ServiceID) []int {
	seen := map[int]bool{}
	for h := range w.Requests {
		if r := &w.Requests[h]; r.Uses(s) {
			seen[r.Home] = true
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	// insertion sort — node counts are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ServicesUsed returns the set of service IDs appearing in any request.
func (w *Workload) ServicesUsed() []ServiceID {
	seen := make([]bool, w.Catalog.Len())
	for h := range w.Requests {
		for _, s := range w.Requests[h].Chain {
			seen[s] = true
		}
	}
	var out []ServiceID
	for s, ok := range seen {
		if ok {
			out = append(out, s)
		}
	}
	return out
}
