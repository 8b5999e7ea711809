package combine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/invariant"
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
func clusteredInstance(t testing.TB, users, regions, perRegion int, lambda float64, seed int64) (*model.Instance, *topology.ShardPlan) {
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

// bounded runs f under a watchdog. A task-graph lock left held on some path
// parks every worker for good; the test then fails after 10 s with a
// goroutine dump instead of at go test's timeout.
func bounded(tb testing.TB, what string, f func()) {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		tb.Fatalf("%s did not return within 10 s; goroutines:\n%s", what, buf[:runtime.Stack(buf, true)])
	}
}

// runShardedBounded is RunSharded under bounded.
func runShardedBounded(tb testing.TB, in *model.Instance, plan *topology.ShardPlan, cfg ShardedConfig) (res *ShardedResult, err error) {
	tb.Helper()
	bounded(tb, "RunSharded", func() { res, err = RunSharded(in, plan, cfg) })
	return res, err
}

// globalEval finalizes a full copy of the instance's graph and evaluates the
// placement globally — the ground truth the halo-scoped accounting bounds.
func globalEval(in *model.Instance, p model.Placement) (*model.Instance, *model.Evaluation) {
	all := make([]int, in.V())
	for v := range all {
		all[v] = v
	}
	gc := topology.Subgraph(in.Graph, all)
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
		sharded, err := runShardedBounded(t, in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		global, err := runShardedBounded(t, in, nil, cfg)
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

// The determinism differential: Workers=1, 2, 4 and GOMAXPROCS produce
// bitwise identical merged placements, accounting, fix-up counters and
// per-shard telemetry (timings aside).
func TestRunShardedWorkerDeterminism(t *testing.T) {
	in, plan := clusteredInstance(t, 180, 4, 7, 0.05, 42)
	run := func(workers int) *ShardedResult {
		cfg := DefaultShardedConfig()
		cfg.Seed = stats.SplitSeed(7, "determinism")
		cfg.Workers = workers
		res, err := runShardedBounded(t, in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if serial.ReconcileProbes == 0 {
		t.Fatal("fixture no longer probes a boundary removal")
	}
	for _, workers := range []int{2, 4, 0} {
		par := run(workers)
		if !reflect.DeepEqual(serial.Placement, par.Placement) {
			t.Fatalf("workers=%d: merged placement differs from serial", workers)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"objective", par.Objective, serial.Objective},
			{"cost", par.Cost, serial.Cost},
			{"latency sum", par.LatencySum, serial.LatencySum},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("workers=%d: %s %v != serial %v", workers, f.name, f.got, f.want)
			}
		}
		if par.Unserved != serial.Unserved || par.DeadlineViolated != serial.DeadlineViolated ||
			par.BudgetMet != serial.BudgetMet ||
			par.ReconcileProbes != serial.ReconcileProbes || par.ReconcileRemoved != serial.ReconcileRemoved {
			t.Fatalf("workers=%d: counts (unserved %d, late %d, budget met %v, probes %d, removed %d) != serial (%d, %d, %v, %d, %d)",
				workers, par.Unserved, par.DeadlineViolated, par.BudgetMet, par.ReconcileProbes, par.ReconcileRemoved,
				serial.Unserved, serial.DeadlineViolated, serial.BudgetMet, serial.ReconcileProbes, serial.ReconcileRemoved)
		}
		if len(par.Shards) != len(serial.Shards) {
			t.Fatalf("workers=%d: %d shard runs, serial %d", workers, len(par.Shards), len(serial.Shards))
		}
		for s, want := range serial.Shards {
			got := par.Shards[s]
			got.SolveTime, want.SolveTime = 0, 0
			if got != want {
				t.Fatalf("workers=%d: shard run %+v != serial %+v", workers, got, want)
			}
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
		res, err := runShardedBounded(t, in, plan, cfg)
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
	res, err := runShardedBounded(t, in, nil, cfg)
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
	res, err := runShardedBounded(t, in, plan, cfg)
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
		// Deadlines 10 % above what the unreconciled placement achieves under
		// global routing: tight enough that most cost-saving boundary removals
		// make some request late.
		_, ev := globalEval(in, unreconciledPlacement(t, in, plan, cfg))
		for h := range in.Workload.Requests {
			in.Workload.Requests[h].Deadline = 1.1 * ev.Latencies[h]
		}
		want := unreconciledPlacement(t, in, plan, cfg)
		rolledBack, commitAfterRollback := naiveReconcile(t, in, plan, want)
		if rolledBack == 0 || !commitAfterRollback {
			t.Fatalf("seed %d: fixture no longer commits a removal after a roll-back (rolled back %d)", seed, rolledBack)
		}
		got, err := runShardedBounded(t, in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Placement, want) {
			t.Fatalf("seed %d: reconciled placement diverges from the scratch reference (%d removals, %d roll-backs in the reference)",
				seed, got.ReconcileRemoved, rolledBack)
		}
	}
}

// unreconciledPlacement runs only the solve tasks of a sharded run: the
// merged placement before any boundary fix-up.
func unreconciledPlacement(t *testing.T, in *model.Instance, plan *topology.ShardPlan, cfg ShardedConfig) model.Placement {
	t.Helper()
	r, err := newShardedRun(in, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < r.plan.NumShards; s++ {
		if err := r.solve(s); err != nil {
			t.Fatal(err)
		}
	}
	return r.merged
}

// bruteTaskDeps derives the sharded run's task graph pair by pair from the
// views (owned nodes plus halo) as sets: reconcile(s) waits for the solves of
// the shards owning a node of view(s) and for each earlier reconcile whose
// view meets view(s); account(s) waits for the reconciles of the owners.
func bruteTaskDeps(plan *topology.ShardPlan) [][]int {
	S := plan.NumShards
	views := make([]map[int]bool, S)
	for s := range views {
		views[s] = map[int]bool{}
		for _, v := range append(append([]int(nil), plan.Shards[s]...), plan.Halo(s)...) {
			views[s][v] = true
		}
	}
	deps := make([][]int, 3*S)
	for s := 0; s < S; s++ {
		for t := 0; t < S; t++ {
			owns := false
			for v := range views[s] {
				owns = owns || plan.NodeShard[v] == t
			}
			if owns {
				deps[S+s] = append(deps[S+s], t)
				deps[2*S+s] = append(deps[2*S+s], S+t)
			}
		}
		for t := 0; t < s; t++ {
			meet := false
			for v := range views[t] {
				meet = meet || views[s][v]
			}
			if meet {
				deps[S+s] = append(deps[S+s], S+t)
			}
		}
	}
	return deps
}

// The task graph is a pure function of the plan; it must equal the pairwise
// derivation on the batch_sharded plan (25 regions of 25 nodes) and on small
// clustered plans, and leave some reconciles unordered — the freedom the
// scheduler uses.
func TestShardTaskDepsMatchBruteForce(t *testing.T) {
	for _, c := range []struct {
		regions, perRegion int
		seed               int64
	}{{25, 25, 1}, {25, 25, 2}, {2, 5, 1}, {3, 6, 2}, {4, 8, 3}, {6, 6, 4}, {9, 5, 5}} {
		g, regionNodes := topology.Clustered(topology.DefaultClusterConfig(c.regions, c.perRegion), c.seed)
		plan, err := topology.PlanShards(g, regionNodes)
		if err != nil {
			t.Fatal(err)
		}
		got, want := shardTaskDeps(plan), bruteTaskDeps(plan)
		if len(got) != len(want) {
			t.Fatalf("%d×%d seed %d: %d tasks, want %d", c.regions, c.perRegion, c.seed, len(got), len(want))
		}
		for task := range want {
			if !slices.Equal(got[task], want[task]) {
				t.Fatalf("%d×%d seed %d: task %d waits for %v, want %v", c.regions, c.perRegion, c.seed, task, got[task], want[task])
			}
		}
		if c.regions == 25 {
			S, unordered := plan.NumShards, 0
			for s := 0; s < S; s++ {
				unordered += s - (len(got[S+s]) - len(got[2*S+s]))
			}
			if unordered == 0 {
				t.Fatalf("25×25 seed %d: every reconcile waits for every earlier one", c.seed)
			}
		}
	}
}

// runTaskGraph runs a task only after everything it waits for, runs every
// task not downstream of a failure exactly once, skips the rest, and goes in
// ascending order on one worker.
func TestRunTaskGraph(t *testing.T) {
	deps := [][]int{{}, {}, {0}, {1}, {2, 3}, {1}, {5}, {4, 6}}
	for _, c := range []struct {
		fail, skipped []int
	}{
		{nil, nil},
		{[]int{0}, []int{2, 4, 7}},
		{[]int{3, 5}, []int{4, 6, 7}},
		{[]int{1, 2}, []int{3, 4, 5, 6, 7}},
	} {
		for _, workers := range []int{1, 2, 4, 0} {
			var clock atomic.Int64
			start, end := make([]int64, len(deps)), make([]int64, len(deps))
			var errs []error
			bounded(t, "runTaskGraph", func() {
				errs = runTaskGraph(deps, workers, func(task int) error {
					start[task] = clock.Add(1)
					defer func() { end[task] = clock.Add(1) }()
					if slices.Contains(c.fail, task) {
						return fmt.Errorf("task %d", task)
					}
					return nil
				})
			})
			for task, ds := range deps {
				ran := start[task] != 0
				if ran == slices.Contains(c.skipped, task) {
					t.Fatalf("fail %v, workers %d: task %d ran = %v", c.fail, workers, task, ran)
				}
				if failed := errs[task] != nil; failed != slices.Contains(c.fail, task) {
					t.Fatalf("fail %v, workers %d: task %d error %v", c.fail, workers, task, errs[task])
				}
				for _, d := range ds {
					if ran && end[d] > start[task] {
						t.Fatalf("workers %d: task %d started before its dependency %d ended", workers, task, d)
					}
				}
				if workers == 1 && ran && task > 0 && start[task] < start[task-1] {
					t.Fatalf("one worker: task %d ran before task %d", task, task-1)
				}
			}
		}
	}
}

// A task that panics fails as itself: the caller gets a recoverable panic
// naming the task and carrying its value, at one worker and at several,
// after the tasks that do not wait on it have run.
func TestRunTaskGraphPanic(t *testing.T) {
	deps := [][]int{{}, {}, {0}, {1}, {2, 3}, {1}}
	for _, workers := range []int{1, 2, 4, 0} {
		var ran [6]atomic.Bool
		var got any
		bounded(t, "runTaskGraph", func() {
			defer func() { got = recover() }()
			runTaskGraph(deps, workers, func(task int) error {
				ran[task].Store(true)
				if task == 3 {
					panic("shard task boom")
				}
				return nil
			})
		})
		p, ok := got.(*taskPanic)
		if !ok {
			t.Fatalf("workers %d: recovered %v (%T), want a *taskPanic", workers, got, got)
		}
		if msg := p.Error(); p.task != 3 || !strings.Contains(msg, "task 3 panicked: shard task boom") {
			t.Fatalf("workers %d: panic names task %d: %q", workers, p.task, msg)
		}
		for task, want := range []bool{true, true, true, true, false, true} {
			if ran[task].Load() != want {
				t.Fatalf("workers %d: task %d ran = %v, want %v", workers, task, !want, want)
			}
		}
	}
}

// The generated schedule differential: on clustered instances of several
// region counts, with deadlines 10 % above the unreconciled placement's global
// latencies so that boundary removals roll back, every worker count must
// reproduce the serial scratch reference's reconciled placement bit for bit.
//
// The regions have 10 nodes: under such deadlines a shard's solve on smaller
// regions often leaves a node over its storage (combine's storage planning
// gives up when no node with room lacks the service — an open ROADMAP item),
// and armed builds stop there, at the solve's Eq. 6 check.
func TestRunShardedScheduleMatchesNaive(t *testing.T) {
	rolledBack := 0
	for _, regions := range []int{3, 5, 7, 9} {
		for _, seed := range []int64{1, 2, 3} {
			in, plan := clusteredInstance(t, 60*regions, regions, 10, 0.5, seed)
			cfg := DefaultShardedConfig()
			cfg.Seed = stats.SplitSeed(seed, "schedule")
			_, ev := globalEval(in, unreconciledPlacement(t, in, plan, cfg))
			for h := range in.Workload.Requests {
				in.Workload.Requests[h].Deadline = 1.1 * ev.Latencies[h]
			}
			want := unreconciledPlacement(t, in, plan, cfg)
			rb, _ := naiveReconcile(t, in, plan, want)
			rolledBack += rb
			for _, workers := range []int{1, 2, 4, 0} {
				cfg.Workers = workers
				got, err := runShardedBounded(t, in, plan, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Placement, want) {
					t.Fatalf("%d regions, seed %d, workers %d: reconciled placement diverges from the serial reference",
						regions, seed, workers)
				}
			}
		}
	}
	if rolledBack == 0 {
		t.Fatal("fixture no longer rolls back a boundary removal")
	}
}

// runShardedParentBytes is what one RunSharded call on BenchmarkRunSharded's
// instance allocated before the per-shard request extracts were shared, the
// reliance lists merged in place and the indexes counted: 42 076 648 B
// (go1.24, linux/amd64).
const runShardedParentBytes = 42_076_648

// RunSharded on the batch_sharded shape allocates at most two thirds of
// runShardedParentBytes.
func TestRunShardedBytes(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("-race and -tags soclinvariants allocate on their own")
	}
	in, plan := clusteredInstance(t, 30000, 25, 25, 0.05, 1)
	cfg := DefaultShardedConfig()
	cfg.Seed = stats.SplitSeed(1, "bench")
	cfg.Workers = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunSharded(in, plan, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(runShardedParentBytes * 2 / 3); got > limit {
		t.Fatalf("RunSharded allocated %d bytes, want at most %d", got, limit)
	}
	t.Logf("RunSharded allocated %d bytes (%.1f %% of the parent's)", got, 100*float64(got)/runShardedParentBytes)
}

// BenchmarkRunSharded is the batch_sharded workload's kernel: RunSharded on
// a clustered instance of 25 regions × 25 nodes with 30 000 users at λ 0.05.
// It reports the reconcile and account stages' summed task times per run.
func BenchmarkRunSharded(b *testing.B) {
	in, plan := clusteredInstance(b, 30000, 25, 25, 0.05, 1)
	cfg := DefaultShardedConfig()
	cfg.Seed = stats.SplitSeed(1, "bench")
	var reconcile, account time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunSharded(in, plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reconcile += res.ReconcileTime
		account += res.AccountTime
	}
	b.ReportMetric(reconcile.Seconds()*1e3/float64(b.N), "reconcile_ms")
	b.ReportMetric(account.Seconds()*1e3/float64(b.N), "account_ms")
}
