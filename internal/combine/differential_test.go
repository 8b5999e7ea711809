package combine

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/topology"
)

// assertRunsIdentical runs the combination twice — Run on the first copy,
// the full-rescan reference refRun on the second — and asserts bit-identical
// placements and statistics. It returns Run's result.
func assertRunsIdentical(t *testing.T, label string, in1, in2 *model.Instance,
	part1, part2 *partition.Result, pre1, pre2 model.Placement, cfg Config) Result {
	t.Helper()
	inc := Run(in1, part1, pre1, cfg)
	ref := refRun(in2, part2, pre2, cfg)

	for i := range inc.Placement.X {
		for k := range inc.Placement.X[i] {
			if inc.Placement.Has(i, k) != ref.Placement.Has(i, k) {
				t.Fatalf("%s: placement diverges at service %d node %d (incremental=%v)",
					label, i, k, inc.Placement.Has(i, k))
			}
		}
	}
	if inc.BudgetMet != ref.BudgetMet ||
		inc.Combined != ref.Combined ||
		inc.RolledBack != ref.RolledBack ||
		inc.Migrated != ref.Migrated ||
		inc.ParallelRounds != ref.ParallelRounds ||
		inc.SerialRounds != ref.SerialRounds {
		t.Fatalf("%s: stats diverge:\nincremental %+v\nreference   %+v", label, inc, ref)
	}
	return inc
}

// TestIncrementalMatchesNaive is the engine's differential proof: across
// seeded random instances — tight budgets (parallel phase active), generous
// budgets (serial phase dominant), tight deadlines (roll-backs + frozen
// churn), cloud fallback on and off, 160 finite-deadline users whose first
// refresh re-routes them all — deadlineViolated, ζ and the reliance
// maintenance must reproduce refRun's full-rescan results bit for bit.
func TestIncrementalMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		in1, part1, pre1 := buildInstance(10, 40, seed, 6500)
		in2, part2, pre2 := buildInstance(10, 40, seed, 6500)
		assertRunsIdentical(t, "tight budget", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
	}
	for seed := int64(1); seed <= 6; seed++ {
		in1, part1, pre1 := buildInstance(9, 35, seed, 1e6)
		in2, part2, pre2 := buildInstance(9, 35, seed, 1e6)
		assertRunsIdentical(t, "serial-dominant", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
	}
	// Cloud fallback: floor drops to zero, last instances may be absorbed.
	for seed := int64(1); seed <= 5; seed++ {
		in1, part1, pre1 := buildInstance(8, 30, seed, 5000)
		in2, part2, pre2 := buildInstance(8, 30, seed, 5000)
		cc := model.DefaultCloudConfig()
		in1.Cloud = &cc
		in2.Cloud = &cc
		assertRunsIdentical(t, "cloud fallback", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
	}
	for seed := int64(1); seed <= 3; seed++ {
		in1, part1, pre1 := buildInstance(12, 160, seed, 1e6)
		in2, part2, pre2 := buildInstance(12, 160, seed, 1e6)
		assertRunsIdentical(t, "160 users", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
	}
}

// TestIncrementalMatchesNaiveUnderRollbacks squeezes deadlines to just above
// the pre-provisioned latencies so the serial phase constantly rolls back,
// exercising snapshot/restore of the route cache, reliance index and frozen
// set.
func TestIncrementalMatchesNaiveUnderRollbacks(t *testing.T) {
	build := func(seed int64) (*model.Instance, *partition.Result, model.Placement) {
		gcfg := topology.DefaultGenConfig()
		g := topology.RandomGeometric(10, 0.35, gcfg, seed)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
		w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(30), seed)
		if err != nil {
			t.Fatal(err)
		}
		in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
		part := partition.Build(in, partition.DefaultConfig())
		pre := preprov.Run(in, part).Placement
		ev := in.Evaluate(pre)
		for h := range in.Workload.Requests {
			in.Workload.Requests[h].Deadline = ev.Latencies[h] * 1.02
		}
		return in, part, pre
	}
	for seed := int64(1); seed <= 5; seed++ {
		in1, part1, pre1 := build(seed)
		in2, part2, pre2 := build(seed)
		assertRunsIdentical(t, "rollback-heavy", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
	}
}

// bindingInstance is the shape of the repo benchmark's batch_global workload
// (bench/batch.go: 60 nodes at radius 0.35, budget 8 000) at a chosen user
// count. Deadline slack 0.5 makes Eq. 4 bind: the placement that leaves the
// parallel phase is already at its limit, so the serial phase rolls back.
func bindingInstance(users int, seed int64) (*model.Instance, *partition.Result, model.Placement) {
	return buildInstanceSlack(60, users, seed, 8000, 0.5)
}

// TestSerialRollbackKeepsRouteCache pins the cold-cache bug: the serial phase
// used to snapshot the route cache before anything had filled it, so every
// roll-back restored an empty cache and the next check re-routed every
// request again (hits == 0, recomputed == roll-backs × requests). The cache
// is now filled under the pre-step placement before the snapshot: a roll-back
// brings back valid entries, and a check re-routes only what its step touched.
func TestSerialRollbackKeepsRouteCache(t *testing.T) {
	for _, seed := range []int64{2, 4, 6} {
		in1, part1, pre1 := bindingInstance(400, seed)
		in2, part2, pre2 := bindingInstance(400, seed)
		finite := 0
		for _, req := range in1.Workload.Requests {
			if !math.IsInf(req.Deadline, 1) {
				finite++
			}
		}
		if finite < 64 {
			t.Fatalf("seed %d: %d finite-deadline requests, want >= 64", seed, finite)
		}
		res := assertRunsIdentical(t, "binding deadlines", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
		if res.RolledBack < 2 {
			t.Fatalf("seed %d: %d roll-backs, the fixture needs >= 2", seed, res.RolledBack)
		}
		if res.RouteCacheHits == 0 {
			t.Fatalf("seed %d: no cache hit across %d roll-backs (%d re-routed)", seed, res.RolledBack, res.RouteRecomputed)
		}
		if res.RouteRecomputed >= res.RolledBack*finite {
			t.Fatalf("seed %d: %d re-routed over %d roll-backs of %d requests: every check started cold",
				seed, res.RouteRecomputed, res.RolledBack, finite)
		}
	}
}

// TestIncrementalCacheTelemetry asserts the engine actually reuses routes:
// cache hits must dwarf recomputes both on a serial-dominant run, whose steps
// are accepted, and under binding deadlines, whose steps are rolled back.
func TestIncrementalCacheTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*model.Instance, *partition.Result, model.Placement)
	}{
		{"serial-dominant", func() (*model.Instance, *partition.Result, model.Placement) { return buildInstance(10, 60, 2, 1e6) }},
		{"binding deadlines", func() (*model.Instance, *partition.Result, model.Placement) { return bindingInstance(400, 2) }},
	} {
		in, part, pre := tc.build()
		res := Run(in, part, pre, DefaultConfig())
		if res.SerialRounds == 0 {
			t.Fatalf("%s: no serial rounds on this instance", tc.name)
		}
		if res.RouteCacheHits <= res.RouteRecomputed {
			t.Fatalf("%s: cache ineffective: %d hits vs %d recomputes",
				tc.name, res.RouteCacheHits, res.RouteRecomputed)
		}
	}
}

// benchCombine times one combination on two fixtures. "serial" is the middle
// ext_combinebench scale — the experiment this benchmark pair replaced:
// finite deadlines, and a budget generous enough that the serial descent,
// the engine's hot path, runs until the objective gradient stops it.
// "binding" is the batch_global shape at 400 users, where every serial step
// is rolled back and the route cache decides the cost.
func benchCombine(b *testing.B, combine func(*model.Instance, *partition.Result, model.Placement, Config) Result) {
	run := func(in *model.Instance, part *partition.Result, pre model.Placement) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchResult = combine(in, part, pre, DefaultConfig())
			}
		}
	}
	b.Run("serial", run(buildInstance(15, 120, 1, 1e9)))
	b.Run("binding", run(bindingInstance(400, 2)))
}

var benchResult Result

func BenchmarkCombineIncremental(b *testing.B) { benchCombine(b, Run) }

// BenchmarkCombineNaive times the full-rescan reference on the same
// fixtures: the engine's speedup is the ratio of the two.
func BenchmarkCombineNaive(b *testing.B) { benchCombine(b, refRun) }
