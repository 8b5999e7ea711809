package msvc

import (
	"repro/internal/stats"
)

// DatasetConfig controls the parameter ranges applied to the embedded
// eShopOnContainers dependency dataset. Defaults follow the paper:
// microservice compute demand q ∈ [1,3] GFLOPs; storage φ ∈ [1,2] units;
// deploy cost κ ∈ [300,700] so that one instance of every service costs
// ≈ 6000, matching the paper's 5000–8000 budget sweep. The json tags are
// the "dataset" block of a config.Scenario file.
type DatasetConfig struct {
	CostMin    float64 `json:"cost_min"`
	CostMax    float64 `json:"cost_max"`
	ComputeMin float64 `json:"compute_min"`
	ComputeMax float64 `json:"compute_max"`
	StorageMin float64 `json:"storage_min"`
	StorageMax float64 `json:"storage_max"`
}

// DefaultDatasetConfig returns the paper-aligned ranges.
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{
		CostMin: 300, CostMax: 700,
		ComputeMin: 1, ComputeMax: 3,
		StorageMin: 1, StorageMax: 2,
	}
}

// eshopServices lists the microservices of the eShopOnContainers reference
// application (dataset [23] in the paper, "Microservices v1.0"), in the
// order they receive IDs.
var eshopServices = []string{
	"identity-api",        // 0: auth/token issuing — the chain entry for all flows
	"catalog-api",         // 1: product catalog
	"basket-api",          // 2: shopping basket (redis-backed)
	"ordering-api",        // 3: order processing
	"payment-api",         // 4: payment processing
	"marketing-api",       // 5: campaigns
	"locations-api",       // 6: geo locations
	"webhooks-api",        // 7: outbound webhooks
	"ordering-signalrhub", // 8: order status push
	"webshoppingagg",      // 9: web shopping aggregator (BFF)
	"mobileshoppingagg",   // 10: mobile shopping aggregator (BFF)
	"webstatus",           // 11: health dashboard
}

// eshopDeps lists the call edges of the dependency graph (caller → callee).
var eshopDeps = [][2]string{
	{"webshoppingagg", "catalog-api"},
	{"webshoppingagg", "basket-api"},
	{"webshoppingagg", "ordering-api"},
	{"webshoppingagg", "identity-api"},
	{"mobileshoppingagg", "catalog-api"},
	{"mobileshoppingagg", "basket-api"},
	{"mobileshoppingagg", "ordering-api"},
	{"mobileshoppingagg", "identity-api"},
	{"basket-api", "identity-api"},
	{"ordering-api", "identity-api"},
	{"ordering-api", "catalog-api"},
	{"ordering-api", "payment-api"},
	{"marketing-api", "identity-api"},
	{"marketing-api", "locations-api"},
	{"webhooks-api", "identity-api"},
	{"ordering-signalrhub", "identity-api"},
	{"ordering-signalrhub", "ordering-api"},
	{"webstatus", "catalog-api"},
	{"webstatus", "ordering-api"},
}

// eshopFlows are the canonical user journeys through the application, each a
// directed microservice chain M_h. Workload generation samples from these
// (with stochastic truncation) so that requests exhibit the overlapping-
// but-diverse dependency structure the paper observes in real traces.
var eshopFlows = [][]string{
	// Browse: login, aggregate, browse catalog.
	{"identity-api", "webshoppingagg", "catalog-api"},
	// Add to basket.
	{"identity-api", "webshoppingagg", "catalog-api", "basket-api"},
	// Checkout: the long purchase chain.
	{"identity-api", "webshoppingagg", "basket-api", "ordering-api", "payment-api"},
	// Mobile checkout.
	{"identity-api", "mobileshoppingagg", "basket-api", "ordering-api", "payment-api"},
	// Order status push.
	{"identity-api", "ordering-signalrhub", "ordering-api"},
	// Campaign view.
	{"identity-api", "marketing-api", "locations-api"},
	// Third-party webhook registration.
	{"identity-api", "webhooks-api"},
	// Ops dashboard.
	{"webstatus", "catalog-api", "ordering-api"},
	// Mobile browse.
	{"identity-api", "mobileshoppingagg", "catalog-api"},
	// Direct reorder (returning customer).
	{"identity-api", "ordering-api", "payment-api"},
}

// EShopCatalog builds the eShopOnContainers catalog with per-service
// parameters drawn deterministically from seed within cfg's ranges.
func EShopCatalog(cfg DatasetConfig, seed int64) *Catalog {
	r := stats.NewRand(stats.SplitSeed(seed, "msvc/eshop"))
	c := NewCatalog()
	for _, name := range eshopServices {
		// Errors are impossible: names are unique, ranges positive.
		if _, err := c.Add(name,
			stats.UniformIn(r, cfg.CostMin, cfg.CostMax),
			stats.UniformIn(r, cfg.ComputeMin, cfg.ComputeMax),
			stats.UniformIn(r, cfg.StorageMin, cfg.StorageMax)); err != nil {
			panic(err)
		}
	}
	for _, d := range eshopDeps {
		from, _ := c.Lookup(d[0])
		to, _ := c.Lookup(d[1])
		if err := c.AddDependency(from, to); err != nil {
			panic(err)
		}
	}
	for _, f := range eshopFlows {
		chain := make([]ServiceID, len(f))
		for i, name := range f {
			id, ok := c.Lookup(name)
			if !ok {
				panic("msvc: flow references unknown service " + name)
			}
			chain[i] = id
		}
		if err := c.AddFlow(chain); err != nil {
			panic(err)
		}
	}
	return c
}

// SyntheticCatalog builds a catalog of n generically-named services whose
// dependency graph is a layered DAG, for scale experiments beyond the eShop
// size. Flows are root-to-leaf walks.
func SyntheticCatalog(n int, cfg DatasetConfig, seed int64) *Catalog {
	if n < 2 {
		n = 2
	}
	r := stats.NewRand(stats.SplitSeed(seed, "msvc/synthetic"))
	c := NewCatalog()
	for i := 0; i < n; i++ {
		name := "svc-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if _, err := c.Add(name,
			stats.UniformIn(r, cfg.CostMin, cfg.CostMax),
			stats.UniformIn(r, cfg.ComputeMin, cfg.ComputeMax),
			stats.UniformIn(r, cfg.StorageMin, cfg.StorageMax)); err != nil {
			panic(err)
		}
	}
	// Layered DAG: each service calls 1-2 services with higher IDs.
	for i := 0; i < n-1; i++ {
		k := 1 + r.Intn(2)
		for j := 0; j < k; j++ {
			to := i + 1 + r.Intn(n-i-1)
			_ = c.AddDependency(i, to) // duplicate edges are harmless
		}
	}
	// Flows: walks of length 3..min(6,n) starting at random low-ID services.
	numFlows := 6 + n/2
	for f := 0; f < numFlows; f++ {
		maxLen := 3 + r.Intn(4)
		cur := r.Intn(max(1, n/3))
		chain := []ServiceID{cur}
		for len(chain) < maxLen {
			next := c.deps[cur]
			if len(next) == 0 {
				break
			}
			cur = next[r.Intn(len(next))]
			chain = append(chain, cur)
		}
		if len(chain) >= 2 {
			if err := c.AddFlow(chain); err != nil {
				panic(err)
			}
		}
	}
	if len(c.flows) == 0 {
		// Degenerate fallback: a single two-service flow always exists.
		if err := c.AddFlow([]ServiceID{0, 1}); err != nil {
			panic(err)
		}
	}
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
