package cluster

import (
	"testing"

	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkRun times ten simulated minutes of the discrete-event cluster
// (cold starts and queueing) under JDR placements.
func BenchmarkRun(b *testing.B) {
	g := topology.RandomGeometric(10, 0.35, topology.DefaultGenConfig(), 1)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(g, cat, 15, int64(i))
		cfg.Horizon = 600
		if _, err := Run(cfg, sim.JDR{}); err != nil {
			b.Fatal(err)
		}
	}
}
