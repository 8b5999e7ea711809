package msvc

import (
	"testing"

	"repro/internal/topology"
)

func TestAllEmbeddedDatasetsBuild(t *testing.T) {
	cfg := DefaultDatasetConfig()
	for _, name := range DatasetNames() {
		cat, err := CatalogByName(name, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cat.Len() < 6 {
			t.Fatalf("%s: only %d services", name, cat.Len())
		}
		if len(cat.Flows()) < 5 {
			t.Fatalf("%s: only %d flows", name, len(cat.Flows()))
		}
		// For the three datasets authored in this file, every flow's
		// consecutive pair is connected in the call graph (in either
		// direction). eShop's journeys also hop between sibling services
		// (e.g. catalog → basket via their shared aggregator), which the
		// paper's chain model explicitly allows, so it is exempt.
		if name == "eshop" {
			continue
		}
		for fi, flow := range cat.Flows() {
			for i := 1; i < len(flow); i++ {
				found := false
				for _, d := range cat.deps[flow[i-1]] {
					if d == flow[i] {
						found = true
					}
				}
				for _, d := range cat.deps[flow[i]] {
					if d == flow[i-1] {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s flow %d: pair %s–%s not adjacent in dependency graph",
						name, fi,
						cat.Service(flow[i-1]).Name, cat.Service(flow[i]).Name)
				}
			}
		}
	}
}

func TestCatalogByNameUnknown(t *testing.T) {
	if _, err := CatalogByName("zzz", DefaultDatasetConfig(), 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDatasetsDeterministicAndDistinct(t *testing.T) {
	cfg := DefaultDatasetConfig()
	a, _ := CatalogByName("sock-shop", cfg, 5)
	b, _ := CatalogByName("sock-shop", cfg, 5)
	for i := 0; i < a.Len(); i++ {
		if a.Service(i) != b.Service(i) {
			t.Fatal("same seed produced different parameters")
		}
	}
	// Different apps use different seed streams: parameters differ even at
	// the same seed.
	c, _ := CatalogByName("piggymetrics", cfg, 5)
	if a.Service(0).DeployCost == c.Service(0).DeployCost {
		t.Fatal("seed streams collide across datasets")
	}
}

func TestHotelReservationHasDeepChain(t *testing.T) {
	cat := HotelReservationCatalog(DefaultDatasetConfig(), 1)
	maxLen := 0
	for _, f := range cat.Flows() {
		if len(f) > maxLen {
			maxLen = len(f)
		}
	}
	if maxLen < 5 {
		t.Fatalf("deepest chain = %d, want ≥ 5", maxLen)
	}
}

func TestDatasetsGenerateWorkloads(t *testing.T) {
	g := topology.RandomGeometric(8, 0.4, topology.DefaultGenConfig(), 3)
	for _, name := range DatasetNames() {
		cat, _ := CatalogByName(name, DefaultDatasetConfig(), 3)
		w, err := GenerateWorkload(cat, g, DefaultWorkloadConfig(20), 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.Requests) != 20 {
			t.Fatalf("%s: %d requests", name, len(w.Requests))
		}
	}
}
