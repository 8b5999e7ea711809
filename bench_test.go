// Package repro's root benchmark harness: one benchmark per paper
// table/figure (regenerating the corresponding experiment at reduced scale;
// run `cmd/soclbench` for the full-scale sweeps) plus micro-benchmarks of
// the solver substrates and ablation benches for the design choices called
// out in DESIGN.md §5.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/combine"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func benchOpts() experiments.Options {
	return experiments.Options{Short: true, Seed: 1, OptTimeLimit: 2 * time.Second}
}

func benchInstance(nodes, users int, seed int64) *model.Instance {
	return config.Paper(nodes, users, seed).MustBuild()
}

// --- one benchmark per paper figure ---

func BenchmarkFig2OptRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(benchOpts())
	}
}

func BenchmarkFig3Similarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(benchOpts())
	}
}

func BenchmarkFig4Temporal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(benchOpts())
	}
}

func BenchmarkFig7UserScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(benchOpts())
	}
}

func BenchmarkFig8Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(benchOpts())
	}
}

func BenchmarkFig9Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(benchOpts())
	}
}

func BenchmarkFig10Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(benchOpts())
	}
}

// --- solver substrates ---

func BenchmarkSimplexTransportation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := lp.NewBoundedProblem(4)
		for j, c := range []float64{1, 2, 3, 1} {
			p.SetObjective(j, c)
		}
		p.AddConstraint(map[int]float64{0: 1, 1: 1}, lp.EQ, 10)
		p.AddConstraint(map[int]float64{2: 1, 3: 1}, lp.EQ, 20)
		p.AddConstraint(map[int]float64{0: 1, 2: 1}, lp.EQ, 15)
		p.AddConstraint(map[int]float64{1: 1, 3: 1}, lp.EQ, 15)
		if _, err := lp.SolveBounded(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILPSoCLTiny(b *testing.B) {
	in := benchInstance(3, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := ilp.BuildSoCLBounded(in)
		if _, err := ilp.SolveBounded(m, ilp.Options{TimeLimit: 30 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILPSolve runs the exact MIP solver — warm-started node LPs on the
// internal/bb scheduler — on one worker and at GOMAXPROCS.
func BenchmarkILPSolve(b *testing.B) {
	in := benchInstance(4, 4, 1)
	run := func(b *testing.B, o ilp.Options) {
		o.TimeLimit = time.Minute
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, _ := ilp.BuildSoCLBounded(in)
			if _, err := ilp.SolveBounded(m, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, ilp.Options{Workers: 1}) })
	b.Run("parallel", func(b *testing.B) { run(b, ilp.Options{}) })
}

// --- SoCL pipeline stages ---

func BenchmarkSoCLSolve10x40(b *testing.B) {
	in := benchInstance(10, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(in, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoCLSolve20x120(b *testing.B) {
	in := benchInstance(20, 120, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(in, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoCLSolve30x200(b *testing.B) {
	in := benchInstance(30, 200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(in, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionBuild(b *testing.B) {
	in := benchInstance(20, 80, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Build(in, partition.DefaultConfig())
	}
}

func BenchmarkPreprovision(b *testing.B) {
	in := benchInstance(20, 80, 1)
	part := partition.Build(in, partition.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprov.Run(in, part)
	}
}

func BenchmarkCombine(b *testing.B) {
	in := benchInstance(20, 80, 1)
	part := partition.Build(in, partition.DefaultConfig())
	pre := preprov.Run(in, part)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combine.Run(in, part, pre.Placement, combine.DefaultConfig())
	}
}

// BenchmarkCombineSerial isolates the small-scale serial descent — the
// dominant cost in core.Solve at Fig. 7 scale. The generous budget makes the
// parallel phase exit immediately, so every iteration is serial rounds of
// ζ scoring, storage planning and exact deadline checks.
func BenchmarkCombineSerial(b *testing.B) {
	in := benchInstance(25, 250, 1)
	in.Budget = 1e9
	part := partition.Build(in, partition.DefaultConfig())
	pre := preprov.Run(in, part)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combine.Run(in, part, pre.Placement, combine.DefaultConfig())
	}
}

func BenchmarkEvaluateExact(b *testing.B) {
	in := benchInstance(20, 120, 1)
	p := baselines.JDR(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Evaluate(p)
	}
}

func BenchmarkRouteOptimalPerRequest(b *testing.B) {
	in := benchInstance(20, 40, 1)
	p := baselines.JDR(in)
	req := &in.Workload.Requests[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.RouteOptimal(req, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- baselines ---

func BenchmarkBaselineRP(b *testing.B) {
	in := benchInstance(10, 80, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.RP(in, int64(i))
	}
}

func BenchmarkBaselineJDR(b *testing.B) {
	in := benchInstance(10, 80, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.JDR(in)
	}
}

func BenchmarkBaselineGCOG(b *testing.B) {
	in := benchInstance(10, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.GCOG(in)
	}
}

// --- ablations (DESIGN.md §5) ---

// Ablation 1: DP routing vs greedy nearest-instance routing.
func BenchmarkAblationRoutingOptimal(b *testing.B) {
	in := benchInstance(15, 80, 1)
	p := baselines.JDR(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.EvaluateRouted(p, model.RouteModeOptimal, 0)
	}
}

func BenchmarkAblationRoutingGreedy(b *testing.B) {
	in := benchInstance(15, 80, 1)
	p := baselines.JDR(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.EvaluateRouted(p, model.RouteModeGreedy, 0)
	}
}

// Ablation 2: the exact MILP (the figures' OPT) on a tiny instance.
func BenchmarkAblationGenericILP(b *testing.B) {
	in := benchInstance(3, 3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := ilp.BuildSoCLBounded(in)
		if _, err := ilp.SolveBounded(m, ilp.Options{TimeLimit: time.Minute}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 3: the ω parallel-combination fraction.
func benchmarkOmega(b *testing.B, omega float64) {
	in := benchInstance(15, 80, 3)
	part := partition.Build(in, partition.DefaultConfig())
	pre := preprov.Run(in, part)
	cfg := combine.DefaultConfig()
	cfg.Omega = omega
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combine.Run(in, part, pre.Placement, cfg)
	}
}

func BenchmarkAblationOmega05(b *testing.B) { benchmarkOmega(b, 0.05) }
func BenchmarkAblationOmega25(b *testing.B) { benchmarkOmega(b, 0.25) }
func BenchmarkAblationOmega90(b *testing.B) { benchmarkOmega(b, 0.90) }

// Ablation 4: the ξ partitioning threshold (auto-median vs extremes).
func benchmarkXi(b *testing.B, xi float64) {
	in := benchInstance(15, 80, 4)
	cfg := partition.Config{Xi: xi, XiQuantile: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Build(in, cfg)
	}
}

func BenchmarkAblationXiAuto(b *testing.B) { benchmarkXi(b, 0) }
func BenchmarkAblationXiLow(b *testing.B)  { benchmarkXi(b, 1e-9) }
func BenchmarkAblationXiHigh(b *testing.B) { benchmarkXi(b, 100) }

// --- substrates ---

func BenchmarkTopologyFinalize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topology.RandomGeometric(30, 0.3, topology.DefaultGenConfig(), int64(i))
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.DurationMinutes = 120
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		trace.Generate(cfg)
	}
}

func BenchmarkSimSlot(b *testing.B) {
	g := topology.RandomGeometric(10, 0.35, topology.DefaultGenConfig(), 1)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(g, cat, 20, int64(i))
		cfg.DurationMinutes = 5 // one slot
		if _, err := sim.Run(cfg, sim.JDR{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterSlot(b *testing.B) {
	g := topology.RandomGeometric(10, 0.35, topology.DefaultGenConfig(), 1)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig(g, cat, 15, int64(i))
		cfg.Horizon = 600
		if _, err := cluster.Run(cfg, sim.JDR{}); err != nil {
			b.Fatal(err)
		}
	}
}
