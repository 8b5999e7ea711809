package msvc

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// refGenerateWorkload is GenerateWorkload with one Chain and one EdgeData
// allocation per request: the reference the shared-array generator must
// reproduce field by field. Inputs are assumed valid.
func refGenerateWorkload(cat *Catalog, g *topology.Graph, cfg WorkloadConfig, seed int64) *Workload {
	r := stats.NewRand(stats.SplitSeed(seed, "msvc/workload"))
	flows := cat.Flows()
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
			minCompute = math.Min(minCompute, n.Compute)
		}
	}
	w := &Workload{Catalog: cat}
	hot := cfg.HotspotNodes
	if hot <= 0 || hot > g.N() {
		hot = g.N()
	}
	for h := 0; h < cfg.NumUsers; h++ {
		var home int
		if r.Float64() < cfg.Hotspot {
			home = r.Intn(hot)
		} else {
			home = r.Intn(g.N())
		}
		base := flows[r.Intn(len(flows))]
		chain := make([]ServiceID, len(base))
		copy(chain, base)
		for cut := 0; cut < 2 && len(chain) > 1 && r.Float64() < cfg.TruncateProb; cut++ {
			chain = chain[:len(chain)-1]
		}
		req := Request{
			ID:      h,
			Home:    home,
			Chain:   chain,
			DataIn:  stats.UniformIn(r, cfg.InDataMin, cfg.InDataMax),
			DataOut: stats.UniformIn(r, cfg.OutDataMin, cfg.OutDataMax),
		}
		req.EdgeData = make([]float64, len(chain)-1)
		for i := range req.EdgeData {
			req.EdgeData[i] = stats.UniformIn(r, cfg.EdgeDataMin, cfg.EdgeDataMax)
		}
		req.Deadline = math.Inf(1)
		if cfg.DeadlineSlack > 0 {
			est := req.DataIn*worstPath + req.DataOut*worstPath
			for i, s := range chain {
				est += cat.Service(s).Compute / minCompute
				if i > 0 {
					est += req.EdgeData[i-1] * worstPath
				}
			}
			req.Deadline = cfg.DeadlineSlack * est
		}
		w.Requests = append(w.Requests, req)
	}
	return w
}

// The workload whose chains and edge data share two arrays equals the
// per-request reference field by field, and every Chain and EdgeData is
// capped at its length, so an append to one cannot reach the next request's.
func TestGenerateWorkloadMatchesReference(t *testing.T) {
	g := testGraph()
	for _, seed := range []int64{1, 2, 3} {
		cat := EShopCatalog(DefaultDatasetConfig(), seed)
		cfg := DefaultWorkloadConfig(3000)
		cfg.TruncateProb = 0.5
		w, err := GenerateWorkload(cat, g, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := refGenerateWorkload(cat, g, cfg, seed)
		if len(w.Requests) != len(want.Requests) {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(w.Requests), len(want.Requests))
		}
		for h := range w.Requests {
			got := &w.Requests[h]
			if !reflect.DeepEqual(*got, want.Requests[h]) {
				t.Fatalf("seed %d: request %d = %+v, want %+v", seed, h, *got, want.Requests[h])
			}
			if cap(got.Chain) != len(got.Chain) || cap(got.EdgeData) != len(got.EdgeData) {
				t.Fatalf("seed %d: request %d has chain len %d cap %d, edge data len %d cap %d",
					seed, h, len(got.Chain), cap(got.Chain), len(got.EdgeData), cap(got.EdgeData))
			}
		}
	}
}
