package partition

import (
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

var benchResult *Result

// BenchmarkBuild times Algorithm 1 on the shape of the repo benchmark's
// batch_global workload (bench/batch.go; constants restated, bench/ is its
// own module): 60 nodes at radius 0.35, 2 000 users.
func BenchmarkBuild(b *testing.B) {
	g := topology.RandomGeometric(60, 0.35, topology.DefaultGenConfig(), 1)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 1)
	wcfg := msvc.DefaultWorkloadConfig(2000)
	wcfg.DeadlineSlack = 0.5
	w, err := msvc.GenerateWorkload(cat, g, wcfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = Build(in, cfg)
	}
}
