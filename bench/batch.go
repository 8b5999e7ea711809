package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ---- batch_global: core.Solve on 48 mid-sized instances ----

const (
	globalInstances = 48
	globalNodes     = 60
	globalRadius    = 0.35
	globalUsers     = 2000
	globalLambda    = 0.5
	globalBudget    = 8000
	// Slack 0.5 makes deadlines bind: with slack >= 1 Algorithm 5 never rolls
	// a combination back and the route cache is never consulted.
	globalDeadlineSlack = 0.5
)

type globalRunner struct {
	ins  []*model.Instance
	last []*core.Solution
}

func setupBatchGlobal(seed int64, _ int, tr *tracer) (runner, error) {
	r := &globalRunner{}
	for i := 0; i < globalInstances; i++ {
		s := scenarioSeed(seed, "batch_global", i)
		id := tr.begin("topology.build")
		g := topology.RandomGeometric(globalNodes, globalRadius, topology.DefaultGenConfig(), s)
		tr.end(id)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), s)
		wcfg := msvc.DefaultWorkloadConfig(globalUsers)
		wcfg.DeadlineSlack = globalDeadlineSlack
		id = tr.begin("msvc.generate")
		w, err := msvc.GenerateWorkload(cat, g, wcfg, s)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		r.ins = append(r.ins, &model.Instance{Graph: g, Workload: w, Lambda: globalLambda, Budget: globalBudget})
	}
	return r, nil
}

// solveStaged is core.Solve taken apart at its public seams so each stage
// gets a span. The calls and their order are core.Solve's own.
func solveStaged(in *model.Instance, cfg core.Config, tr *tracer) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sol := &core.Solution{}
	id := tr.begin("partition.build")
	sol.Partition = partition.Build(in, cfg.Partition)
	tr.end(id)
	id = tr.begin("preprov.run")
	sol.Preprov = preprov.Run(in, sol.Partition)
	tr.end(id)
	id = tr.begin("combine.run")
	comb := combine.Run(in, sol.Partition, sol.Preprov.Placement, cfg.Combine)
	tr.end(id)
	sol.Placement = comb.Placement
	sol.Stats.PreprovInstances = sol.Preprov.Placement.Instances()
	sol.Stats.Combined = comb.Combined
	sol.Stats.RolledBack = comb.RolledBack
	sol.Stats.Migrated = comb.Migrated
	sol.Stats.RouteCacheHits = comb.RouteCacheHits
	sol.Stats.RouteRecomputed = comb.RouteRecomputed
	id = tr.begin("model.evaluate")
	sol.Evaluation = in.Evaluate(sol.Placement)
	tr.end(id)
	return sol, nil
}

func (r *globalRunner) pass(tr *tracer) (*pass, error) {
	p := &pass{}
	cfg := core.DefaultConfig()
	r.last = r.last[:0]
	objSum := 0.0
	start := time.Now()
	for _, in := range r.ins {
		tr.nextOp()
		t0 := time.Now()
		var sol *core.Solution
		var err error
		if tr == nil {
			sol, err = core.Solve(in, cfg)
		} else {
			id := tr.begin("core.solve")
			sol, err = solveStaged(in, cfg, tr)
			tr.end(id)
		}
		p.ops = append(p.ops, float64(time.Since(t0))/1e3)
		if err != nil {
			p.opErrors++
			continue
		}
		r.last = append(r.last, sol)
		objSum += sol.Evaluation.Objective
		p.attempted += len(in.Workload.Requests)
		p.failed += sol.Evaluation.Unserved() + sol.Evaluation.DeadlineViolated
	}
	p.wall = time.Since(start)
	p.events = len(r.last)
	p.objective = objSum / float64(len(r.ins))
	if tr != nil {
		p.layers = r.layers(tr)
	}
	return p, nil
}

func (r *globalRunner) layers(tr *tracer) map[string]float64 {
	lt := selfTimes(tr.spans)
	n := float64(len(r.last))
	var groups, pre, combined, rolled, migrated, hits, recomputed float64
	for _, sol := range r.last {
		for _, sp := range sol.Partition.ByService {
			groups += float64(len(sp.Groups))
		}
		pre += float64(sol.Stats.PreprovInstances)
		combined += float64(sol.Stats.Combined)
		rolled += float64(sol.Stats.RolledBack)
		migrated += float64(sol.Stats.Migrated)
		hits += float64(sol.Stats.RouteCacheHits)
		recomputed += float64(sol.Stats.RouteRecomputed)
	}
	out := map[string]float64{
		"partition.build_ms":            lt["partition.build"].meanMS(),
		"partition.groups":              groups / n,
		"preprov.run_ms":                lt["preprov.run"].meanMS(),
		"preprov.instances":             pre / n,
		"combine.run_ms":                lt["combine.run"].meanMS(),
		"combine.combined":              combined / n,
		"combine.rolled_back":           rolled / n,
		"combine.migrated":              migrated / n,
		"model.evaluate_ms":             lt["model.evaluate"].meanMS(),
		"combine.route_cache_hit_ratio": 0,
	}
	if hits+recomputed > 0 {
		out["combine.route_cache_hit_ratio"] = hits / (hits + recomputed)
	}
	return out
}

func (r *globalRunner) probe() (map[string]float64, error) { return nil, nil }

// check holds every placement to the instance's own rules: a valid instance,
// storage within every node (Eq. 6), cost within budget (Eq. 5), and an
// evaluation that agrees.
func (r *globalRunner) check() error {
	if len(r.last) != len(r.ins) {
		return fmt.Errorf("batch_global: %d of %d instances solved", len(r.last), len(r.ins))
	}
	for i, in := range r.ins {
		if err := checkPlacement(in, r.last[i].Placement); err != nil {
			return fmt.Errorf("batch_global: instance %d: %w", i, err)
		}
		ev := r.last[i].Evaluation
		if ev.StorageViolatedAt != -1 || ev.OverBudget {
			return fmt.Errorf("batch_global: instance %d: evaluation reports storage violation at %d, over budget %v",
				i, ev.StorageViolatedAt, ev.OverBudget)
		}
	}
	return nil
}

func checkPlacement(in *model.Instance, p model.Placement) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if len(p.X) != in.M() || (in.M() > 0 && len(p.X[0]) != in.V()) {
		return fmt.Errorf("placement is not %d services by %d nodes", in.M(), in.V())
	}
	if k := in.CheckStorage(p); k != -1 {
		return fmt.Errorf("node %d exceeds its storage (Eq. 6)", k)
	}
	if !in.CheckBudget(p) {
		return fmt.Errorf("deploy cost %v exceeds budget %v (Eq. 5)", in.DeployCost(p), in.Budget)
	}
	return nil
}

func (r *globalRunner) close() error { return nil }

// ---- batch_sharded: combine.RunSharded on clustered instances ----

const (
	shardedInstances = 8
	shardedRegions   = 25
	shardedPerRegion = 25
	shardedUsers     = 30000
	shardedLambda    = 0.05
)

type shardedInstance struct {
	in   *model.Instance
	plan *topology.ShardPlan
	seed int64
}

type shardedRunner struct {
	ins     []shardedInstance
	workers int
	last    []*combine.ShardedResult
}

// setupBatchSharded builds each instance the way ext_scale does: an
// unfinalized clustered substrate, uniform homes, no deadlines, and a budget
// of 1.5 × regions × Σκ so every shard can afford its continuity floor.
func setupBatchSharded(seed int64, workers int, tr *tracer) (runner, error) {
	r := &shardedRunner{workers: workers}
	for i := 0; i < shardedInstances; i++ {
		s := scenarioSeed(seed, "batch_sharded", i)
		id := tr.begin("topology.build")
		g, regions := topology.Clustered(topology.DefaultClusterConfig(shardedRegions, shardedPerRegion), s)
		tr.end(id)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), s)
		wcfg := msvc.DefaultWorkloadConfig(shardedUsers)
		wcfg.DeadlineSlack = 0
		wcfg.Hotspot = 0
		id = tr.begin("msvc.generate")
		w, err := msvc.GenerateWorkload(cat, g, wcfg, s)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		in := &model.Instance{Graph: g, Workload: w, Lambda: shardedLambda,
			Budget: 1.5 * shardedRegions * cat.TotalDeployCost()}
		id = tr.begin("topology.plan_shards")
		plan, err := topology.PlanShards(g, regions)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		r.ins = append(r.ins, shardedInstance{in: in, plan: plan, seed: s})
	}
	return r, nil
}

func (si shardedInstance) solve(workers int) (*combine.ShardedResult, error) {
	cfg := combine.DefaultShardedConfig()
	cfg.Workers = workers
	cfg.Seed = si.seed
	return combine.RunSharded(si.in, si.plan, cfg)
}

func (r *shardedRunner) pass(tr *tracer) (*pass, error) {
	p := &pass{}
	var skew, useful, solve, reconcile, account []float64
	r.last = r.last[:0]
	objSum := 0.0
	start := time.Now()
	for _, si := range r.ins {
		tr.nextOp()
		t0 := time.Now()
		id := tr.begin("combine.sharded.run")
		res, err := si.solve(r.workers)
		tr.end(id)
		p.ops = append(p.ops, float64(time.Since(t0))/1e3)
		if err != nil {
			p.opErrors++
			continue
		}
		r.last = append(r.last, res)
		objSum += res.Objective
		p.attempted += len(si.in.Workload.Requests)
		p.failed += res.Unserved + res.DeadlineViolated
		if tr != nil {
			solve = append(solve, res.SolveTime.Seconds()*1e3)
			reconcile = append(reconcile, res.ReconcileTime.Seconds()*1e3)
			account = append(account, res.AccountTime.Seconds()*1e3)
			skew = append(skew, shardSkew(res.Shards))
			if res.ReconcileProbes > 0 {
				useful = append(useful, float64(res.ReconcileRemoved)/float64(res.ReconcileProbes))
			}
		}
	}
	p.wall = time.Since(start)
	p.events = len(r.last)
	p.objective = objSum / float64(len(r.ins))
	if tr != nil {
		p.layers = map[string]float64{
			"combine.sharded.run_ms":                 selfTimes(tr.spans)["combine.sharded.run"].meanMS(),
			"combine.sharded.solve_ms":               stats.Mean(solve),
			"combine.sharded.reconcile_ms":           stats.Mean(reconcile),
			"combine.sharded.account_ms":             stats.Mean(account),
			"combine.sharded.shard_skew":             stats.Mean(skew),
			"combine.sharded.reconcile_useful_ratio": stats.Mean(useful),
		}
	}
	return p, nil
}

// shardSkew is the slowest shard's solve time over the mean: the phase waits
// for the slowest of its parallel parts.
func shardSkew(shards []combine.ShardRun) float64 {
	var sum, max float64
	for _, s := range shards {
		d := s.SolveTime.Seconds()
		sum += d
		max = math.Max(max, d)
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(shards)))
}

// probe re-enacts the slicing RunSharded does before each shard's solve:
// model.NewShardInstance extracts the shard's subgraph (topology.Subgraph),
// finalizes it and re-homes the shard's requests. The metric is the cost of
// slicing every shard of one instance once.
func (r *shardedRunner) probe() (map[string]float64, error) {
	var perInstance []float64
	for _, si := range r.ins {
		reqs := make([][]int, si.plan.NumShards)
		for h := range si.in.Workload.Requests {
			s := si.plan.NodeShard[si.in.Workload.Requests[h].Home]
			reqs[s] = append(reqs[s], h)
		}
		t0 := time.Now()
		for s, own := range si.plan.Shards {
			if _, err := model.NewShardInstance(si.in, own, len(own), reqs[s], len(reqs[s])); err != nil {
				return nil, err
			}
		}
		perInstance = append(perInstance, time.Since(t0).Seconds()*1e3)
	}
	return map[string]float64{"model.shard_slice_ms": median(perInstance)}, nil
}

// check holds every merged placement to Eq. 5/6 and the sharded solve to its
// determinism contract: one worker and several give the same objective to
// the bit. The passes ran with r.workers; the check solves once more with the
// other kind of count.
func (r *shardedRunner) check() error {
	if len(r.last) != len(r.ins) {
		return fmt.Errorf("batch_sharded: %d of %d instances solved", len(r.last), len(r.ins))
	}
	other := 1
	if r.workers == 1 {
		other = 2
	}
	for i, si := range r.ins {
		if err := checkPlacement(si.in, r.last[i].Placement); err != nil {
			return fmt.Errorf("batch_sharded: instance %d: %w", i, err)
		}
		again, err := si.solve(other)
		if err != nil {
			return fmt.Errorf("batch_sharded: instance %d: Workers %d: %w", i, other, err)
		}
		if math.Float64bits(again.Objective) != math.Float64bits(r.last[i].Objective) {
			return fmt.Errorf("batch_sharded: instance %d: objective %v with %d workers, %v with %d",
				i, r.last[i].Objective, r.workers, again.Objective, other)
		}
	}
	return nil
}

func (r *shardedRunner) close() error { return nil }
