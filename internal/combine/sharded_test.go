package combine

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/stats"
	"repro/internal/topology"
)

// clusteredInstance builds a small clustered instance plus its region shard
// plan: the fixture of every sharded-combine test. The substrate is left
// unfinalized (RunSharded never needs the parent finalized); tests that want
// global queries finalize a full Subgraph copy themselves.
func clusteredInstance(t *testing.T, users, regions, perRegion int, lambda float64, seed int64) (*model.Instance, *topology.ShardPlan) {
	t.Helper()
	g, regionNodes := topology.Clustered(topology.DefaultClusterConfig(regions, perRegion), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	wcfg := msvc.DefaultWorkloadConfig(users)
	wcfg.DeadlineSlack = 0
	wcfg.Hotspot = 0
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	kappa := 0.0
	for i := 0; i < cat.Len(); i++ {
		kappa += cat.Service(i).DeployCost
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: lambda, Budget: 1.5 * float64(regions) * kappa}
	plan, err := topology.PlanShards(g, regionNodes)
	if err != nil {
		t.Fatal(err)
	}
	return in, plan
}

// globalEval finalizes a full copy of the instance's graph and evaluates the
// placement globally — the ground truth the halo-scoped accounting bounds.
func globalEval(in *model.Instance, p model.Placement) (*model.Instance, *model.Evaluation) {
	all := make([]int, in.V())
	for v := range all {
		all[v] = v
	}
	gc := topology.Subgraph(in.Graph, all)
	gc.Finalize()
	gin := &model.Instance{Graph: gc, Workload: in.Workload, Lambda: in.Lambda, Budget: in.Budget}
	return gin, gin.Evaluate(p)
}

// The ISSUE-pinned bounded-regret differential: on small instances the
// sharded objective must stay within factor 2 of the global reference. The
// halo-scoped sharded objective is itself an upper bound on the true global
// objective of the merged placement, so the test also checks that ordering.
func TestRunShardedBoundedRegret(t *testing.T) {
	const regretBound = 2.0
	for _, users := range []int{60, 240} {
		in, plan := clusteredInstance(t, users, 4, 8, 0.05, int64(100+users))
		cfg := DefaultShardedConfig()
		cfg.Seed = stats.SplitSeed(1, "regret")
		sharded, err := RunSharded(in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		global, err := RunSharded(in, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Unserved != 0 || global.Unserved != 0 {
			t.Fatalf("users=%d: unserved sharded=%d global=%d, want 0",
				users, sharded.Unserved, global.Unserved)
		}
		if math.IsInf(sharded.Objective, 1) || math.IsInf(global.Objective, 1) {
			t.Fatalf("users=%d: infinite objective (sharded=%v global=%v)",
				users, sharded.Objective, global.Objective)
		}
		if sharded.Objective > regretBound*global.Objective {
			t.Fatalf("users=%d: sharded objective %.4g exceeds %.1f× global %.4g",
				users, sharded.Objective, regretBound, global.Objective)
		}
		// Halo-scoped accounting upper-bounds the true global objective of
		// the merged placement, and the merged placement serves everyone.
		gin, ev := globalEval(in, sharded.Placement)
		trueObj := gin.Objective(gin.DeployCost(sharded.Placement), ev.LatencySum)
		if trueObj > sharded.Objective+1e-6 {
			t.Fatalf("users=%d: true objective %.6g above halo-scoped bound %.6g",
				users, trueObj, sharded.Objective)
		}
		for h := range in.Workload.Requests {
			if math.IsInf(ev.Latencies[h], 1) {
				t.Fatalf("users=%d: request %d unserved under global evaluation", users, h)
			}
		}
	}
}

// The ISSUE-pinned determinism differential: Workers=1 and Workers=N produce
// bitwise identical merged placements and accounting.
func TestRunShardedWorkerDeterminism(t *testing.T) {
	in, plan := clusteredInstance(t, 180, 4, 7, 0.05, 42)
	run := func(workers int) *ShardedResult {
		cfg := DefaultShardedConfig()
		cfg.Seed = stats.SplitSeed(7, "determinism")
		cfg.Workers = workers
		res, err := RunSharded(in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{4, 0} {
		par := run(workers)
		for i := range serial.Placement.X {
			for v := range serial.Placement.X[i] {
				if serial.Placement.X[i][v] != par.Placement.X[i][v] {
					t.Fatalf("workers=%d: placement bit (%d,%d) differs", workers, i, v)
				}
			}
		}
		if math.Float64bits(serial.Objective) != math.Float64bits(par.Objective) {
			t.Fatalf("workers=%d: objective %v != serial %v", workers, par.Objective, serial.Objective)
		}
		if math.Float64bits(serial.Cost) != math.Float64bits(par.Cost) {
			t.Fatalf("workers=%d: cost %v != serial %v", workers, par.Cost, serial.Cost)
		}
		if math.Float64bits(serial.LatencySum) != math.Float64bits(par.LatencySum) {
			t.Fatalf("workers=%d: latency sum %v != serial %v", workers, par.LatencySum, serial.LatencySum)
		}
		if serial.Unserved != par.Unserved || serial.DeadlineViolated != par.DeadlineViolated ||
			serial.ReconcileRemoved != par.ReconcileRemoved {
			t.Fatalf("workers=%d: counts differ", workers)
		}
	}
}

// Boundary reconciliation must never strand a request: the cross-shard
// pin-set forbids a shard from removing an instance an earlier shard's
// committed fix-up now relies on. Pinned by the 240-user case, where the
// unpinned version strands interior requests.
func TestRunShardedReconcileNeverStrands(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in, plan := clusteredInstance(t, 240, 4, 8, 0.5, seed)
		cfg := DefaultShardedConfig()
		cfg.Seed = stats.SplitSeed(seed, "strand")
		res, err := RunSharded(in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Unserved != 0 {
			t.Fatalf("seed %d: %d requests stranded after reconciliation", seed, res.Unserved)
		}
		_, ev := globalEval(in, res.Placement)
		for h := range in.Workload.Requests {
			if math.IsInf(ev.Latencies[h], 1) {
				t.Fatalf("seed %d: request %d unserved under global evaluation", seed, h)
			}
		}
	}
}

// The nil-plan path is the plain global pipeline on a single shard: its
// placement must equal partition → preprov → combine run directly.
func TestRunShardedNaiveMatchesDirectPipeline(t *testing.T) {
	in, _ := clusteredInstance(t, 120, 4, 6, 0.05, 13)
	cfg := DefaultShardedConfig()
	cfg.Seed = stats.SplitSeed(1, "naive")
	res, err := RunSharded(in, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Direct pipeline over a finalized copy. The single shard's budget is
	// max(full budget, continuity floor) = the full budget here.
	gin, _ := globalEval(in, res.Placement)
	part := partition.Build(gin, cfg.Partition)
	pre := preprov.Run(gin, part)
	direct := Run(gin, part, pre.Placement, cfg.Combine)

	for i := range res.Placement.X {
		for v := range res.Placement.X[i] {
			if res.Placement.X[i][v] != direct.Placement.X[i][v] {
				t.Fatalf("placement bit (%d,%d): naive sharded %v, direct %v",
					i, v, res.Placement.X[i][v], direct.Placement.X[i][v])
			}
		}
	}
}

// Zero-request shards must solve to empty placements without error.
func TestRunShardedEmptyShard(t *testing.T) {
	g, regions := topology.Clustered(topology.DefaultClusterConfig(3, 5), 21)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 21)
	// All users homed in region 0: regions 1 and 2 carry no demand.
	reqs := make([]msvc.Request, 0, 10)
	flows := cat.Flows()
	for h := 0; h < 10; h++ {
		reqs = append(reqs, msvc.Request{
			ID: h, Home: regions[0][h%len(regions[0])], Chain: flows[h%len(flows)],
			DataIn: 1, DataOut: 1,
			EdgeData: edgeOnes(len(flows[h%len(flows)]) - 1),
			Deadline: math.Inf(1),
		})
	}
	in := &model.Instance{
		Graph:    g,
		Workload: &msvc.Workload{Catalog: cat, Requests: reqs},
		Lambda:   0.05,
		Budget:   1e6,
	}
	plan, err := topology.PlanShards(g, regions)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultShardedConfig()
	res, err := RunSharded(in, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unserved != 0 {
		t.Fatalf("unserved = %d", res.Unserved)
	}
	for s := 1; s <= 2; s++ {
		if res.Shards[s].Instances != 0 {
			t.Fatalf("empty shard %d placed %d instances", s, res.Shards[s].Instances)
		}
	}
	// No instance may land outside region 0's nodes plus nothing else.
	for i := range res.Placement.X {
		for v := range res.Placement.X[i] {
			if res.Placement.X[i][v] && plan.NodeShard[v] != 0 {
				t.Fatalf("instance (%d,%d) on empty shard %d", i, v, plan.NodeShard[v])
			}
		}
	}
}

func edgeOnes(n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// naiveReconcile is the scratch-evaluation reference of RunSharded's boundary
// reconciliation: the same halo views, candidate order, guards and pin-set,
// but every candidate is scored by evaluating a cloned placement from
// scratch, so nothing can leak from one probe into the next. It commits the
// removals to merged and reports how many candidates were rolled back
// (objective improved, a request went unserved or late) and whether a commit
// followed a roll-back within one shard — the sequence on which an evaluator
// left in its probed state would diverge.
func naiveReconcile(t *testing.T, in *model.Instance, plan *topology.ShardPlan, merged model.Placement) (rolledBack int, commitAfterRollback bool) {
	t.Helper()
	reqsByNode := make([][]int, in.V())
	for h, req := range in.Workload.Requests {
		reqsByNode[req.Home] = append(reqsByNode[req.Home], h)
	}
	pinned := map[[2]int]bool{}
	for s := 0; s < plan.NumShards; s++ {
		own, halo := plan.Shards[s], plan.Halo(s)
		if len(halo) == 0 {
			continue
		}
		nodes := append(append([]int(nil), own...), halo...)
		var reqs []int
		for _, v := range own {
			reqs = append(reqs, reqsByNode[v]...)
		}
		sort.Ints(reqs)
		ownReqs := len(reqs)
		servable := func(h int) bool {
			for _, svc := range in.Workload.Requests[h].Chain {
				found := false
				for _, v := range nodes {
					found = found || merged.Has(svc, v)
				}
				if !found {
					return false
				}
			}
			return true
		}
		var haloReqs []int
		for _, v := range halo {
			for _, h := range reqsByNode[v] {
				if servable(h) {
					haloReqs = append(haloReqs, h)
				}
			}
		}
		sort.Ints(haloReqs)
		si, err := model.NewShardInstance(in, nodes, len(own), append(reqs, haloReqs...), ownReqs)
		if err != nil {
			t.Fatal(err)
		}
		si.Sub.Budget = math.Inf(1)
		p := si.Restrict(merged)
		base := si.Sub.Evaluate(p)
		rolledBackHere := false
		for i := 0; i < in.M(); i++ {
			for _, k := range localIndex(plan.Gateways[s], own) {
				if !p.Has(i, k) || pinned[[2]int{i, si.Nodes[k]}] {
					continue
				}
				q := p.Clone()
				q.Set(i, k, false)
				ev := si.Sub.Evaluate(q)
				if !(ev.Objective < base.Objective-boundaryImproveTol) {
					continue
				}
				if ev.Unserved() > base.Unserved() || ev.DeadlineViolated > base.DeadlineViolated {
					rolledBack++
					rolledBackHere = true
					continue
				}
				p, base = q, ev
				merged.Set(i, si.Nodes[k], false)
				commitAfterRollback = commitAfterRollback || rolledBackHere
			}
		}
		for h := 0; h < si.OwnReqs; h++ {
			chain := si.Sub.Workload.Requests[h].Chain
			for j, kn := range base.Routes[h].Nodes {
				if kn >= si.OwnNodes {
					pinned[[2]int{chain[j], si.Nodes[kn]}] = true
				}
			}
		}
	}
	return rolledBack, commitAfterRollback
}

// Boundary reconciliation probes through one DeltaEvaluator per shard, so a
// rolled-back candidate must leave it exactly as it was: with finite
// deadlines a removal can cut cost by more than it adds latency and still
// make a request late (no in-tree caller passes deadlines to RunSharded, so
// no other test reaches the roll-back), and every later candidate of that
// shard is then scored on the evaluator the roll-back left behind. The
// reconciled placement must equal the scratch reference's bit for bit.
func TestRunShardedReconcileRollbackMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in, plan := clusteredInstance(t, 240, 4, 8, 0.5, seed)
		cfg := DefaultShardedConfig()
		cfg.Seed = stats.SplitSeed(seed, "rollback")
		unreconciled := func() model.Placement {
			r, err := solveAndMerge(in, plan, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r.res.Placement
		}
		// Deadlines 10 % above what the unreconciled placement achieves under
		// global routing: tight enough that most cost-saving boundary removals
		// make some request late.
		_, ev := globalEval(in, unreconciled())
		for h := range in.Workload.Requests {
			in.Workload.Requests[h].Deadline = 1.1 * ev.Latencies[h]
		}
		want := unreconciled()
		rolledBack, commitAfterRollback := naiveReconcile(t, in, plan, want)
		if rolledBack == 0 || !commitAfterRollback {
			t.Fatalf("seed %d: fixture no longer commits a removal after a roll-back (rolled back %d)", seed, rolledBack)
		}
		got, err := RunSharded(in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Placement, want) {
			t.Fatalf("seed %d: reconciled placement diverges from the scratch reference (%d removals, %d roll-backs in the reference)",
				seed, got.ReconcileRemoved, rolledBack)
		}
	}
}
