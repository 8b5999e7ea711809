package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/bb"
	"repro/internal/chaos"
	"repro/internal/combine"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/repair"
	"repro/internal/topology"
)

// benchResult is one benchmark's measurement in BENCH_<date>.json.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchFile is the BENCH_<date>.json layout: a dated snapshot of the hot
// paths the perf work targets, written by `soclbench -benchjson <dir>` so
// before/after evidence can be committed next to the results CSVs. Workers
// is the effective pool size the *Parallel benchmarks ran with (the -workers
// flag resolved exactly as the solvers resolve it: 0 = GOMAXPROCS), and CPUs
// the machine's logical core count — together they say whether a snapshot's
// parallel numbers can show real speedup or were taken on a serial box.
type benchFile struct {
	Date       string                 `json:"date"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	CPUs       int                    `json:"cpus"`
	Workers    int                    `json:"workers"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

// runBenchJSON measures the delta-engine hot paths (incremental GC-OG, the
// combine serial descent, the Fig. 8 sweep) via
// testing.Benchmark and writes dir/BENCH_<date>.json.
func runBenchJSON(dir string, workers int) error {
	// Resolve the worker knob exactly as the solvers do, so the recorded
	// value is what the *Parallel benchmarks actually ran with instead of a
	// literal 0.
	workers = bb.ResolveWorkers(workers)
	gcogIn := config.Paper(10, 40, 1).MustBuild()
	combineIn := config.Paper(25, 250, 1).MustBuild()
	combineIn.Budget = 1e9
	part := partition.Build(combineIn, partition.DefaultConfig())
	pre := preprov.Run(combineIn, part)
	fig8Opts := experiments.Options{Short: true, Seed: 1, Workers: workers}
	optIn := config.Paper(8, 10, 1).MustBuild()
	ilpIn := config.Paper(4, 4, 1).MustBuild()
	// Sharded-combine smoke: one clustered instance solved per region and by
	// the single-shard global reference, at the configured worker count.
	shardedIn, shardedPlan, err := config.Clustered(240, 4, 8, 1)
	if err != nil {
		return err
	}
	shardedCfg := combine.DefaultShardedConfig()
	shardedCfg.Workers = workers
	shardedCfg.Seed = 1

	// Fault-repair smoke: crash two hosting nodes, degrade a link, shrink a
	// node, then measure the incremental repair.
	chaosIn := config.Paper(10, 40, 1).MustBuild()
	chaosP := baselines.JDR(chaosIn)
	chaosMask := chaos.NewMask(chaosIn.Graph)
	crashed := 0
	for k := 0; k < chaosIn.V() && crashed < 2; k++ {
		for i := range chaosP.X {
			if chaosP.Has(i, k) {
				mustApplyFault(chaosMask, chaos.Event{Kind: chaos.NodeCrash, Node: k})
				crashed++
				break
			}
		}
	}
	l := chaosMask.Links()[0]
	mustApplyFault(chaosMask, chaos.Event{Kind: chaos.LinkDegrade, A: l.A, B: l.B, Factor: 0.25})
	mustApplyFault(chaosMask, chaos.Event{Kind: chaos.StorageShrink, Node: chaosIn.V() - 1, Factor: 0.5})

	type kernel struct {
		name string
		fn   func(b *testing.B)
	}
	benches := []kernel{
		{"BaselineGCOG", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baselines.GCOG(gcogIn)
			}
		}},
		{"CombineSerial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				combine.Run(combineIn, part, pre.Placement, combine.DefaultConfig())
			}
		}},
		{"Fig8Short", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.Fig8(fig8Opts)
			}
		}},
		// Sharded vs global combine on the same clustered instance (the
		// ext_scale comparison at smoke scale). The gap between the two is
		// the per-shard table-build and routing saving; on a single-core
		// runner it is purely algorithmic.
		{"ShardedCombine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRunSharded(shardedIn, shardedPlan, shardedCfg)
			}
		}},
		{"ShardedCombineGlobal", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRunSharded(shardedIn, nil, shardedCfg)
			}
		}},
		// Exact-solver stack (the Fig2/Fig7 OPT columns): the deterministic
		// engine at one worker vs the configured worker count. On a
		// single-core runner the two coincide — the parallel speedup needs a
		// multicore runner.
		{"OptSolveSerial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustSolveOpt(optIn, opt.Options{TimeLimit: 30 * time.Second, Workers: 1})
			}
		}},
		{"OptSolveParallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustSolveOpt(optIn, opt.Options{TimeLimit: 30 * time.Second, Workers: workers})
			}
		}},
		{"ChaosRepair", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repair.Run(chaosIn, chaosMask, chaosP, repair.Config{})
			}
		}},
		{"ILPSolveSerial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustSolveILP(ilpIn, ilp.Options{TimeLimit: time.Minute, Workers: 1})
			}
		}},
		{"ILPSolveParallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustSolveILP(ilpIn, ilp.Options{TimeLimit: time.Minute, Workers: workers})
			}
		}},
	}

	// Fig-2-scale OPT kernels (≈ 40 ms and ≈ 155 ms serial on the box that
	// chose the scheduler, DESIGN.md §14): trees of 10⁴–10⁵ nodes, where a
	// scheduler's fixed start-up cost no longer decides the comparison.
	for _, sz := range [][2]int{{8, 20}, {10, 15}} {
		in := config.Paper(sz[0], sz[1], 1).MustBuild()
		for _, mode := range []struct {
			name    string
			workers int
		}{{"Serial", 1}, {"Parallel", workers}} {
			o := opt.Options{TimeLimit: 30 * time.Second, Workers: mode.workers}
			benches = append(benches, kernel{fmt.Sprintf("OptSolveFig2_%dx%d%s", sz[0], sz[1], mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustSolveOpt(in, o)
				}
			}})
		}
	}

	out := benchFile{
		Date:       time.Now().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		Workers:    workers,
		Benchmarks: map[string]benchResult{},
	}
	for _, bench := range benches {
		fmt.Fprintf(os.Stderr, "[bench %s]\n", bench.name)
		r := testing.Benchmark(bench.fn)
		out.Benchmarks[bench.name] = benchResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Multicore snapshots get an _mp<N> suffix so they sit next to (never
	// overwrite) the single-core file from the same day: the serial numbers
	// stay comparable across days while the suffixed file carries the honest
	// parallel-speedup evidence.
	name := "BENCH_" + out.Date
	if out.GoMaxProcs > 1 {
		name += fmt.Sprintf("_mp%d", out.GoMaxProcs)
	}
	path := filepath.Join(dir, name+".json")
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[wrote %s]\n", path)
	return nil
}

func mustRunSharded(in *model.Instance, plan *topology.ShardPlan, cfg combine.ShardedConfig) {
	if _, err := combine.RunSharded(in, plan, cfg); err != nil {
		panic(err)
	}
}

func mustApplyFault(m *chaos.Mask, ev chaos.Event) {
	if err := m.Apply(ev); err != nil {
		panic(err)
	}
}

func mustSolveOpt(in *model.Instance, o opt.Options) {
	if _, err := opt.Solve(in, o); err != nil {
		panic(err)
	}
}

func mustSolveILP(in *model.Instance, o ilp.Options) {
	m, _ := ilp.BuildSoCLBounded(in)
	if _, err := ilp.SolveBounded(m, o); err != nil {
		panic(err)
	}
}
