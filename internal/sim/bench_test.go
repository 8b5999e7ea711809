package sim

import (
	"testing"

	"repro/internal/msvc"
	"repro/internal/topology"
)

// BenchmarkRunSlot times a one-slot run of the slot loop with JDR: request
// generation, one placement and one evaluation.
func BenchmarkRunSlot(b *testing.B) {
	g := topology.RandomGeometric(10, 0.35, topology.DefaultGenConfig(), 1)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(g, cat, 20, int64(i))
		cfg.DurationMinutes = 5
		if _, err := Run(cfg, JDR{}); err != nil {
			b.Fatal(err)
		}
	}
}
