package core

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// batchGlobalInstance is one instance of the repo benchmark's batch_global
// workload (bench/batch.go): the constants are restated here, not imported,
// because bench/ is a module of its own. Slack 0.5 makes the deadlines bind,
// so the serial phase rolls back and the route cache is consulted.
func batchGlobalInstance(tb testing.TB, seed int64) *model.Instance {
	tb.Helper()
	g := topology.RandomGeometric(60, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	wcfg := msvc.DefaultWorkloadConfig(2000)
	wcfg.DeadlineSlack = 0.5
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
}

var benchSolution *Solution

// BenchmarkSolveBatchGlobal times core.Solve on the batch_global shape: the
// kernel behind that workload's op_p50_us, attributable without bench/.
func BenchmarkSolveBatchGlobal(b *testing.B) {
	in := batchGlobalInstance(b, 2)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(in, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSolution = sol
	}
}

// BenchmarkSolve times the full partition → pre-provision → combine solve
// on three paper-regime scales, the runtime side of Fig. 7 (EXPERIMENTS.md,
// "SoCL runtime scaling").
func BenchmarkSolve(b *testing.B) {
	for _, s := range []struct{ nodes, users int }{{10, 40}, {20, 120}, {30, 200}} {
		in := config.Paper(s.nodes, s.users, 1).MustBuild()
		b.Run(fmt.Sprintf("%dx%d", s.nodes, s.users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Solve(in, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
