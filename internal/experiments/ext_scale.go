package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/combine"
	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ExtScale charts solve time and objective regret versus |U| across
// 10²…10⁶ users on clustered substrates: the sharded combine
// (combine.RunSharded — per-region solves on finalized per-shard extracts,
// index-ordered merge, boundary reconciliation) against the global reference
// (the same pipeline as one shard, paying the full O(|V|²) table build and
// global-candidate routing). Two rows per sweep point:
//
//	path     — "sharded" or "global";
//	build_s  — substrate + workload generation (shared, reported once per
//	           point on the sharded row);
//	solve_s  — the path's full solve, including the global path's whole-
//	           graph finalize and each path's final accounting;
//	obj      — the path's objective. The sharded objective scores each
//	           shard's own requests on its halo view, an upper bound on the
//	           true global objective of the merged placement (DESIGN.md
//	           §13); the global objective is exact.
//	regret_x — sharded obj ÷ global obj on the sharded row (an upper bound
//	           on the true regret, for the same reason); 1.000 on the
//	           global row; empty when the global path did not run.
//	fixups   — boundary-reconciliation removals (sharded row only).
//	err      — empty on a clean run; a panic or error leaves its message
//	           here and the row keeps whatever partial columns exist (the
//	           ext_faults partial-result contract). The global path above
//	           extScaleGlobalCap users is recorded as a skipped row rather
//	           than dropped: its O(|U|·|V|²) routing and O(|U|·L·|V|)
//	           latency tables are infeasible at that scale.
//
// Each point is an instance of the clustered regime (config.Clustered).
// -shards overrides the per-point region count.
func ExtScale(opts Options) *Table {
	type point struct{ users, regions, perRegion int }
	pts := []point{
		{100, 4, 12},
		{1000, 9, 12},
		{10000, 16, 25},
		{100000, 36, 28},
		{1000000, 100, 100},
	}
	globalCap := extScaleGlobalCap
	if opts.Short {
		pts = []point{
			{60, 4, 6},
			{240, 4, 8},
		}
		globalCap = 240
	}

	t := &Table{
		ID:    "ext_scale",
		Title: "Sharded vs global combine: solve time and regret vs |U| on clustered substrates",
		Header: []string{"users", "nodes", "shards", "path", "build_s", "solve_s",
			"obj", "cost", "unserved", "fixups", "regret_x", "err"},
	}

	for pi, p := range pts {
		regions := p.regions
		if opts.Shards > 0 {
			regions = opts.Shards
		}
		seed := stats.SplitSeed(opts.Seed, fmt.Sprintf("ext_scale/%d", pi))
		tb := time.Now()
		in, plan, err := config.Clustered(p.users, regions, p.perRegion, seed)
		if err != nil {
			t.AddRow(itoa(p.users), "0", itoa(regions), "sharded", "0.000", "0.000",
				"0", "0", "0", "0", "", err.Error())
			t.AddRow(itoa(p.users), "0", itoa(regions), "global", "0.000", "0.000",
				"0", "0", "0", "0", "", err.Error())
			continue
		}
		buildS := time.Since(tb)

		sharded, shardedDur, shardedErr := runScalePath(in, plan, seed, opts.Workers)
		var global *combine.ShardedResult
		var globalDur time.Duration
		var globalErr error
		if p.users <= globalCap {
			global, globalDur, globalErr = runScalePath(in, nil, seed, opts.Workers)
		} else {
			globalErr = fmt.Errorf("skipped: global solve infeasible at %d users / %d nodes (O(|V|²) tables, O(|U|·L·|V|) latency tables)", p.users, in.V())
		}

		regret := ""
		if sharded != nil && global != nil && global.Objective > 0 && !math.IsInf(global.Objective, 1) {
			regret = f3(sharded.Objective / global.Objective)
		}
		addScaleRow(t, p.users, in.V(), plan.NumShards, "sharded", buildS, shardedDur, sharded, regret, shardedErr)
		globalRegret := ""
		if global != nil {
			globalRegret = "1.000"
		}
		addScaleRow(t, p.users, in.V(), plan.NumShards, "global", 0, globalDur, global, globalRegret, globalErr)
	}
	return t
}

// extScaleGlobalCap is the largest user count the global reference still
// runs at in the full sweep; past it the global row is reported as skipped.
const extScaleGlobalCap = 100000

// runScalePath runs one ext_scale path — sharded under plan, or the global
// single-shard reference when plan is nil — converting panics (e.g.
// allocation failures at the extreme sizes) into the row's err column.
func runScalePath(in *model.Instance, plan *topology.ShardPlan, seed int64, workers int) (res *combine.ShardedResult, dur time.Duration, err error) {
	t0 := time.Now()
	defer func() {
		dur = time.Since(t0)
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cfg := combine.DefaultShardedConfig()
	cfg.Workers = workers
	cfg.Seed = seed
	res, err = combine.RunSharded(in, plan, cfg)
	return res, time.Since(t0), err
}

// addScaleRow emits one path row, keeping partial columns when the result is
// missing (the err column carries the reason).
func addScaleRow(t *Table, users, nodes, shards int, path string, build, solve time.Duration, r *combine.ShardedResult, regret string, err error) {
	buildCol := "0.000"
	if build > 0 {
		buildCol = f3(build.Seconds())
	}
	errCol := ""
	if err != nil {
		errCol = err.Error()
	}
	if r == nil {
		t.AddRow(itoa(users), itoa(nodes), itoa(shards), path, buildCol, f3(solve.Seconds()),
			"0", "0", "0", "0", regret, errCol)
		return
	}
	t.AddRow(itoa(users), itoa(nodes), itoa(shards), path, buildCol, f3(solve.Seconds()),
		fmt.Sprintf("%.6g", r.Objective), fmt.Sprintf("%.6g", r.Cost),
		itoa(r.Unserved), itoa(r.ReconcileRemoved), regret, errCol)
}
