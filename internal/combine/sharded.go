package combine

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file is the sharded combine path: the full partition → pre-provision
// → combine pipeline run independently per topology shard, merged by index
// order, and stitched at the boundaries with a DeltaEvaluator fix-up pass.
// It is what takes the solve from one global O(|V|²) table build plus
// O(|U|·instances²) routing to S independent problems of 1/S the size — the
// million-user scale path of ext_scale.
//
// Determinism follows the sweep-executor discipline (experiments.runSweep):
// shard s's work is a pure function of the instance, the plan, and the
// derived seed stats.SplitSeed(Seed, "shard/<s>"); results land in slot s of
// a pre-sized slice regardless of which worker computes them; every
// cross-shard phase (merge, reconciliation, accounting) walks shards in
// ascending index order. Workers=1 and Workers=N therefore produce bitwise
// identical placements and objectives, which TestRunShardedWorkerDeterminism
// pins.
//
// Reconciliation: per-shard solves never see cross-boundary reliances — a
// chain whose user sits one hop from a neighboring shard's gateway may be
// served better by that gateway than by an instance its own solve kept. The
// fix-up pass rebuilds, per shard, a halo sub-instance (owned nodes plus the
// neighbors' facing gateways, owned requests plus servable halo requests),
// binds a model.DeltaEvaluator to the merged placement restricted to that
// view, and probes the removal of every owned gateway instance through the
// apply/score/rollback machinery: removals that strictly improve the halo
// objective without increasing unserved or deadline-violated counts commit
// to the merged placement; everything else rolls back. Removal-only fix-ups
// keep the merge trivially storage- and budget-monotone (Eq. 5/6 can only
// improve), which the armed invariant layer rechecks per shard.

// ShardedConfig configures RunSharded.
type ShardedConfig struct {
	// Partition and Combine configure each shard's pipeline stages.
	Partition partition.Config
	// Combine holds the per-shard combination hyper-parameters.
	Combine Config
	// Workers bounds the shard worker pool: 0 = GOMAXPROCS, 1 = serial (no
	// goroutines). Placements and objectives are identical either way.
	Workers int
	// Seed is the root seed; shard s derives stats.SplitSeed(Seed,
	// "shard/<s>") for every seeded component it binds (the reconciliation
	// evaluator's routing seed — inert under optimal routing, but derived
	// per the repo-wide discipline so seeded modes stay reproducible).
	Seed int64
}

// DefaultShardedConfig returns per-shard defaults matching the global
// pipeline's (median-ξ partitioning, ω=0.25, Θ=1).
func DefaultShardedConfig() ShardedConfig {
	return ShardedConfig{Partition: partition.DefaultConfig(), Combine: DefaultConfig()}
}

// ShardRun is one shard's solve telemetry.
type ShardRun struct {
	Shard     int
	Nodes     int // owned nodes
	Requests  int // owned requests
	Instances int // instances placed by the shard's solve
	BudgetMet bool
	SolveTime time.Duration
}

// ShardedResult is the merged outcome of a sharded combine.
type ShardedResult struct {
	// Placement is the merged global placement (parent node IDs).
	Placement model.Placement
	// Cost is the exact global deployment cost of the merged placement.
	Cost float64
	// LatencySum, Unserved and DeadlineViolated aggregate each shard's own
	// requests evaluated on its halo view (owned nodes plus facing
	// gateways). Routing a request within its halo can only overestimate
	// the latency a global evaluator would find, so Objective is an upper
	// bound on the true global objective of Placement — the bounded-regret
	// differential test measures the gap against the nil-plan global reference.
	LatencySum       float64
	Unserved         int
	DeadlineViolated int
	// Objective is λ·Cost + (1−λ)·LatencySum with the halo-scoped latencies.
	Objective float64
	// BudgetMet reports Cost ≤ the parent budget; per-shard continuity
	// floors can push the merged cost past it on starved budgets.
	BudgetMet bool
	// Shards holds per-shard telemetry, indexed by shard.
	Shards []ShardRun
	// ReconcileProbes and ReconcileRemoved count boundary fix-up activity.
	ReconcileProbes  int
	ReconcileRemoved int
	// SolveTime covers slicing + per-shard solves + merge; ReconcileTime and
	// AccountTime the fix-up pass and the final per-shard evaluations.
	SolveTime     time.Duration
	ReconcileTime time.Duration
	AccountTime   time.Duration
}

// boundaryImproveTol is the strict-improvement margin a boundary removal must
// clear: ties and float-noise-level wins roll back, keeping the fix-up pass
// deterministic under summation-order changes.
const boundaryImproveTol = 1e-9

// RunSharded solves the instance per shard of plan and merges the results;
// see the file comment for the discipline. The parent graph may be
// unfinalized — every stage works on finalized per-shard extracts. The plan
// must cover the instance's nodes exactly; users and service chains follow
// their home node's shard. A nil plan solves the whole instance as a single
// shard: the global-combine reference of the differential tests and the
// ext_scale comparison. It finalizes a full copy of the graph, so it works —
// at full O(|V|²) cost — even on unfinalized substrates.
func RunSharded(in *model.Instance, plan *topology.ShardPlan, cfg ShardedConfig) (*ShardedResult, error) {
	r, err := solveAndMerge(in, plan, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.reconcile(cfg.Seed); err != nil {
		return nil, err
	}
	return r.account(cfg.Workers)
}

// shardedRun carries one RunSharded call through its stages: the per-shard
// solves and their merge, boundary reconciliation, and the final accounting.
type shardedRun struct {
	in          *model.Instance
	plan        *topology.ShardPlan
	reqsByShard [][]int // owned requests per shard, ascending
	reqsByNode  [][]int // requests per home node, ascending
	// res is the result under construction; res.Placement is the merged
	// placement, which reconciliation edits in place.
	res *ShardedResult
	// halo holds the halo views reconciliation built, for accounting to
	// reuse; nil entries are built on demand.
	halo []*model.ShardInstance
}

// solveAndMerge is phases 1 and 2: every shard's pipeline solved on its own,
// then the index-ordered merge.
func solveAndMerge(in *model.Instance, plan *topology.ShardPlan, cfg ShardedConfig) (*shardedRun, error) {
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	t0 := time.Now()
	if plan == nil {
		all := make([]int, in.V())
		for v := range all {
			all[v] = v
		}
		var err error
		plan, err = topology.PlanShards(in.Graph, [][]int{all})
		if err != nil {
			return nil, err
		}
	}
	if len(plan.NodeShard) != in.V() {
		return nil, fmt.Errorf("combine: plan covers %d nodes, instance has %d", len(plan.NodeShard), in.V())
	}
	S := plan.NumShards
	M := in.M()

	// Owned requests per shard and per node, ascending by parent index.
	reqsByShard := make([][]int, S)
	reqsByNode := make([][]int, in.V())
	for h := range in.Workload.Requests {
		home := in.Workload.Requests[h].Home
		if home < 0 || home >= in.V() {
			return nil, fmt.Errorf("combine: request %d homed on out-of-range node %d", h, home)
		}
		s := plan.NodeShard[home]
		reqsByShard[s] = append(reqsByShard[s], h)
		reqsByNode[home] = append(reqsByNode[home], h)
	}

	// Budget split: each shard gets its demand share of the parent budget,
	// floored at the service-continuity cost Σκ over the services its own
	// requests use (preprov deploys each used service at least once; a budget
	// below that floor is unmeetable by construction).
	kappa := make([]float64, M)
	for i := range kappa {
		kappa[i] = in.Workload.Catalog.Service(i).DeployCost
	}
	budgets := make([]float64, S)
	totalReqs := float64(len(in.Workload.Requests))
	for s := 0; s < S; s++ {
		used := make([]bool, M)
		floor := 0.0
		for _, h := range reqsByShard[s] {
			for _, svc := range in.Workload.Requests[h].Chain {
				if !used[svc] {
					used[svc] = true
					floor += kappa[svc]
				}
			}
		}
		share := 0.0
		if totalReqs > 0 {
			share = in.Budget * float64(len(reqsByShard[s])) / totalReqs
		}
		budgets[s] = share
		if budgets[s] < floor {
			budgets[s] = floor
		}
	}

	// Phase 1: independent per-shard solves through a slot-indexed worker
	// pool (the runSweep pattern: out[s] is written only by the worker that
	// drew index s, so parallel and serial runs are identical).
	type shardOut struct {
		si    *model.ShardInstance
		local model.Placement
		stat  ShardRun
		err   error
	}
	outs := make([]shardOut, S)
	solve := func(s int) shardOut {
		//socllint:ignore detrand elapsed wall time is telemetry, never branched on
		t := time.Now()
		own := plan.Shards[s]
		reqs := reqsByShard[s]
		st := ShardRun{Shard: s, Nodes: len(own), Requests: len(reqs)}
		si, err := model.NewShardInstance(in, own, len(own), reqs, len(reqs))
		if err != nil {
			return shardOut{err: fmt.Errorf("combine: shard %d: %w", s, err)}
		}
		if len(reqs) == 0 {
			// No demand: nothing to place on this shard.
			st.BudgetMet = true
			//socllint:ignore detrand elapsed wall time is telemetry, never branched on
			st.SolveTime = time.Since(t)
			return shardOut{si: si, local: model.NewPlacement(M, len(own)), stat: st}
		}
		si.Sub.Budget = budgets[s]
		part := partition.Build(si.Sub, cfg.Partition)
		pre := preprov.Run(si.Sub, part)
		res := Run(si.Sub, part, pre.Placement, cfg.Combine)
		st.Instances = res.Placement.Instances()
		st.BudgetMet = res.BudgetMet
		//socllint:ignore detrand elapsed wall time is telemetry, never branched on
		st.SolveTime = time.Since(t)
		// Per-shard Eq. 5/6 recheck before the merge; Eq. 4 is rechecked by
		// CheckShardMerge once the merged placement is evaluated.
		invariant.CheckStorage(si.Sub, res.Placement, fmt.Sprintf("sharded: shard %d solve", s))
		if res.BudgetMet {
			invariant.CheckBudget(si.Sub, res.Placement, fmt.Sprintf("sharded: shard %d solve", s))
		}
		return shardOut{si: si, local: res.Placement, stat: st}
	}
	forEachShard(S, cfg.Workers, outs, solve)
	for s := range outs {
		if outs[s].err != nil {
			return nil, outs[s].err
		}
	}

	// Phase 2: index-ordered merge. Shards own disjoint node columns, so the
	// merge is conflict-free by construction.
	merged := model.NewPlacement(M, in.V())
	res := &ShardedResult{Placement: merged, Shards: make([]ShardRun, S)}
	for s := 0; s < S; s++ {
		outs[s].si.ScatterOwn(outs[s].local, merged)
		res.Shards[s] = outs[s].stat
	}
	invariant.CheckStorage(in, merged, "sharded: merge") // Eq. 6 needs no finalized parent
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	res.SolveTime = time.Since(t0)
	return &shardedRun{in: in, plan: plan, reqsByShard: reqsByShard, reqsByNode: reqsByNode,
		res: res, halo: make([]*model.ShardInstance, S)}, nil
}

// buildHalo builds shard s's halo view of the merged placement: its owned
// nodes plus the neighbors' facing gateways, its owned requests plus the
// servable halo requests.
func (r *shardedRun) buildHalo(s int) (*model.ShardInstance, error) {
	in, merged, M := r.in, r.res.Placement, r.in.M()
	own := r.plan.Shards[s]
	halo := r.plan.Halo(s)
	nodes := make([]int, 0, len(own)+len(halo))
	nodes = append(nodes, own...)
	nodes = append(nodes, halo...)
	reqs := append([]int(nil), r.reqsByShard[s]...)
	ownReqs := len(reqs)
	if len(halo) > 0 {
		// Halo requests (homed on the neighbors' facing gateways) ride
		// along only when the restricted view can serve their whole
		// chain; an unservable halo request would pin the base objective
		// at +Inf and mask every boundary improvement.
		avail := make([]bool, M)
		for i := 0; i < M; i++ {
			for _, v := range nodes {
				if merged.X[i][v] {
					avail[i] = true
					break
				}
			}
		}
		var haloReqs []int
		for _, hn := range halo {
			for _, h := range r.reqsByNode[hn] {
				servable := true
				for _, svc := range in.Workload.Requests[h].Chain {
					if !avail[svc] {
						servable = false
						break
					}
				}
				if servable {
					haloReqs = append(haloReqs, h)
				}
			}
		}
		sort.Ints(haloReqs)
		reqs = append(reqs, haloReqs...)
	}
	si, err := model.NewShardInstance(in, nodes, len(own), reqs, ownReqs)
	if err != nil {
		return nil, fmt.Errorf("combine: shard %d halo: %w", s, err)
	}
	si.Sub.Budget = math.Inf(1) // fix-up scoring is objective-driven, not budget-gated
	return si, nil
}

// reconcile is phase 3: boundary reconciliation, serial in ascending shard
// order (each shard's view must include the removals neighbors already
// committed).
//
// Cross-shard safety: when shard s sheds an instance, its requests may now
// route through a neighbor's boundary instance — a reliance s's guard can
// see but the neighbor's cannot (s's interior requests are outside every
// other shard's halo view). After each shard commits, the boundary
// instances its own requests route through are pinned, and later shards
// skip pinned candidates. Without the pin-set, shard s can shed an
// instance relying on t's gateway and t (reconciling later, guarding only
// its own halo view) can shed that gateway, stranding s's requests.
func (r *shardedRun) reconcile(seed int64) error {
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	tr := time.Now()
	res, merged, M := r.res, r.res.Placement, r.in.M()
	pinned := make(map[[2]int]bool) // (service, parent node) → relied upon
	for s := 0; s < r.plan.NumShards; s++ {
		if len(r.plan.Halo(s)) == 0 {
			continue
		}
		si, err := r.buildHalo(s)
		if err != nil {
			return err
		}
		r.halo[s] = si
		de := model.NewDeltaEvaluator(si.Sub, si.Restrict(merged), model.RouteModeOptimal,
			stats.SplitSeed(seed, fmt.Sprintf("shard/%d", s)))
		base := de.Eval()
		// Candidates: the shard's own gateway instances, ascending
		// (service, node) — the only placements a cross-shard reliance
		// can make redundant.
		gwLocal := localIndex(r.plan.Gateways[s], si.Nodes[:si.OwnNodes])
		for i := 0; i < M; i++ {
			for _, k := range gwLocal {
				if !de.Placement().Has(i, k) || pinned[[2]int{i, si.Nodes[k]}] {
					continue
				}
				res.ReconcileProbes++
				obj, _ := de.ProbeRemoval(i, k)
				if !(obj < base.Objective-boundaryImproveTol) {
					continue
				}
				dl := de.Apply(i, k, false)
				ev := de.Eval()
				if ev.Unserved() <= base.Unserved() && ev.DeadlineViolated <= base.DeadlineViolated {
					merged.Set(i, si.Nodes[k], false)
					base = ev
					res.ReconcileRemoved++
				} else {
					// The objective improved by shedding cost while a
					// request went unserved or late: roll back.
					de.Revert(dl)
				}
			}
		}
		// Pin every boundary instance this shard's own requests route
		// through under the committed placement. Over-pinning (a route
		// that merely prefers a boundary instance it does not need) only
		// forgoes a later removal; under-pinning strands requests.
		for h := 0; h < si.OwnReqs; h++ {
			rt := base.Routes[h]
			if rt.Nodes == nil {
				continue
			}
			chain := si.Sub.Workload.Requests[h].Chain
			for j, kn := range rt.Nodes {
				if kn >= si.OwnNodes {
					pinned[[2]int{chain[j], si.Nodes[kn]}] = true
				}
			}
		}
	}
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	res.ReconcileTime = time.Since(tr)
	return nil
}

// account is phase 4: each shard's own requests evaluated on its halo view
// under the final merged placement (neighbors' reconciliation may have moved
// boundary instances, so views rebuild or re-advance).
func (r *shardedRun) account(workers int) (*ShardedResult, error) {
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	ta := time.Now()
	in, res, merged, S := r.in, r.res, r.res.Placement, r.plan.NumShards
	type acct struct {
		lat      float64
		unserved int
		late     int
		err      error
	}
	accts := make([]acct, S)
	account := func(s int) acct {
		si := r.halo[s]
		if si == nil {
			var err error
			si, err = r.buildHalo(s)
			if err != nil {
				return acct{err: err}
			}
		}
		ev := si.Sub.Evaluate(si.Restrict(merged))
		invariant.CheckShardMerge(si.Sub, ev, false, fmt.Sprintf("sharded: shard %d account", s))
		a := acct{}
		for h := 0; h < si.OwnReqs; h++ {
			l := ev.Latencies[h]
			a.lat += l
			if math.IsInf(l, 1) {
				a.unserved++
			} else if l > si.Sub.Workload.Requests[h].Deadline+model.FeasTol {
				a.late++
			}
		}
		return a
	}
	forEachShard(S, workers, accts, account)
	for s := 0; s < S; s++ {
		if accts[s].err != nil {
			return nil, accts[s].err
		}
		res.LatencySum += accts[s].lat
		res.Unserved += accts[s].unserved
		res.DeadlineViolated += accts[s].late
	}
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	res.AccountTime = time.Since(ta)
	res.Cost = in.DeployCost(merged)
	res.Objective = in.Objective(res.Cost, res.LatencySum)
	res.BudgetMet = res.Cost <= in.Budget+model.FeasTol
	return res, nil
}

// forEachShard runs fn over shard indices through a slot-indexed worker pool
// (out[s] is written only by the worker that drew s; workers ≤ 1 runs the
// pure serial path). The runSweep pattern, minus the per-point seeds the
// callers derive themselves.
func forEachShard[R any](n, workers int, out []R, fn func(s int) R) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for s := 0; s < n; s++ {
			out[s] = fn(s)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for s := range idx {
				out[s] = fn(s)
			}
		}()
	}
	for s := 0; s < n; s++ {
		idx <- s
	}
	close(idx)
	wg.Wait()
}

// localIndex maps the sorted global node IDs in want to their local indices
// within the sorted prefix own of a shard's node map.
func localIndex(want, own []int) []int {
	out := make([]int, 0, len(want))
	j := 0
	for _, v := range want {
		for j < len(own) && own[j] < v {
			j++
		}
		if j < len(own) && own[j] == v {
			out = append(out, j)
			j++
		}
	}
	return out
}
