package msvc

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// randomIndexWorkload draws a workload whose shape the generator never
// produces: chains that repeat a service, catalog services nobody requests,
// nodes nobody lives on, no requests at all, a single node.
func randomIndexWorkload(seed int64) (*Workload, int) {
	r := stats.NewRand(seed)
	services := 1 + r.Intn(8)
	nodes := 1 + r.Intn(12)
	users := r.Intn(60)
	switch seed % 10 {
	case 0:
		users = 0 // empty workload
	case 1:
		nodes = 1 // single node
	}
	cat := NewCatalog()
	for i := 0; i < services; i++ {
		if _, err := cat.Add(fmt.Sprintf("s%d", i), 100, 1, 1); err != nil {
			panic(err)
		}
	}
	// Requests draw from a prefix of the catalog and of the node range, so
	// the rest stays unrequested and unpopulated.
	liveServices := 1 + r.Intn(services)
	liveNodes := 1 + r.Intn(nodes)
	w := &Workload{Catalog: cat}
	for h := 0; h < users; h++ {
		chain := make([]ServiceID, 1+r.Intn(5))
		for t := range chain {
			chain[t] = r.Intn(liveServices) // repeats are likely
		}
		w.Requests = append(w.Requests, Request{
			ID: h, Home: r.Intn(liveNodes), Chain: chain,
			EdgeData: make([]float64, len(chain)-1), Deadline: math.Inf(1),
		})
	}
	return w, nodes
}

// TestIndexMatchesScans holds the index to the Workload scan methods entry
// for entry on generated workloads.
func TestIndexMatchesScans(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		w, nodes := randomIndexWorkload(seed)
		ix := NewIndex(w, nodes)
		m := w.Catalog.Len()

		if got, want := ix.ServicesUsed(), w.ServicesUsed(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: ServicesUsed %v, scan %v", seed, got, want)
		}
		adjacent := map[[2]int]bool{}
		for _, req := range w.Requests {
			for i := 1; i < len(req.Chain); i++ {
				adjacent[[2]int{req.Chain[i-1], req.Chain[i]}] = true
				adjacent[[2]int{req.Chain[i], req.Chain[i-1]}] = true
			}
		}
		for s := 0; s < m; s++ {
			if got, want := ix.NodesRequesting(s), w.NodesRequesting(s); !slices.Equal(got, want) {
				t.Fatalf("seed %d: NodesRequesting(%d) %v, scan %v", seed, s, got, want)
			}
			row := ix.DemandRow(s)
			if len(row) != nodes {
				t.Fatalf("seed %d: DemandRow(%d) has %d entries for %d nodes", seed, s, len(row), nodes)
			}
			for k := 0; k < nodes; k++ {
				want := w.DemandCount(k, s)
				if got := ix.DemandCount(k, s); got != want || row[k] != want {
					t.Fatalf("seed %d: DemandCount(%d,%d) = %d, row %d, scan %d", seed, k, s, got, row[k], want)
				}
			}
			for b := 0; b < m; b++ {
				if got, want := ix.ChainAdjacent(s, b), adjacent[[2]int{s, b}]; got != want {
					t.Fatalf("seed %d: ChainAdjacent(%d,%d) = %v, chains say %v", seed, s, b, got, want)
				}
			}
		}
	}
}
