package combine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file is the sharded combine path: the full partition → pre-provision
// → combine pipeline run independently per topology shard, merged into one
// placement, and stitched at the boundaries with a DeltaEvaluator fix-up
// pass. It is what takes the solve from one global O(|V|²) table build plus
// O(|U|·instances²) routing to S independent problems of 1/S the size — the
// million-user scale path of ext_scale.
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
//
// Schedule: a run is 3·S tasks — solve, reconcile and account per shard —
// run as one dependency-ordered graph (runTaskGraph), not as three phases
// behind barriers. Call a shard's owned nodes plus its halo its view. What
// each task touches lies inside its shard's view:
//   - solve(s) writes the merged placement's columns of s's owned nodes;
//   - reconcile(s) reads the merged columns and the pins of view(s), and
//     writes the columns of s's own gateways and the pins of s's halo nodes;
//   - account(s) reads the merged columns of view(s).
//
// Two tasks can conflict only when their views share a node. The graph
// (shardTaskDeps) orders every such pair the way the serial order — every
// solve, then the reconciles ascending, then the accounts ascending — does:
// reconcile(s) waits for the solves of the shards owning a node of view(s)
// and for every earlier reconcile whose view meets view(s); account(s)
// waits for the reconciles of the shards owning a node of view(s). Two
// reconciles whose views do not meet read and write disjoint columns and
// pins, so they commute, and every schedule the graph allows yields the
// serial order's placement bit for bit. Workers=1 runs the graph inline in
// ascending task order, which is the serial order itself.
//
// Determinism follows the sweep-executor discipline (experiments.runSweep):
// shard s's work is a pure function of the instance, the plan, the derived
// seed stats.SplitSeed(Seed, "shard/<s>") and what the tasks it waits for
// wrote; its results land in slot s of pre-sized slices regardless of which
// worker ran it; the sums over shards are taken after the graph, in
// ascending shard order. Workers=1 and Workers=N therefore produce bitwise
// identical placements and objectives, which TestRunShardedWorkerDeterminism
// and TestRunShardedScheduleMatchesNaive pin.

// ShardedConfig configures RunSharded.
type ShardedConfig struct {
	// Partition and Combine configure each shard's pipeline stages.
	Partition partition.Config
	// Combine holds the per-shard combination hyper-parameters.
	Combine Config
	// Workers bounds the goroutines running the shard tasks, resolved by
	// bb.ResolveWorkers (0 = GOMAXPROCS). 1 runs every task on the calling
	// goroutine, and nothing beneath starts one. Placements and objectives
	// are identical either way.
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
	// SolveTime, ReconcileTime and AccountTime are the summed task times of
	// each stage: the solves (slicing, per-shard solve and merge), the
	// boundary fix-ups and the final per-shard evaluations. The stages
	// overlap in wall time, so the three can add up to more than the call
	// took.
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
//
// On failure it returns the error of the first failing task in stage-then-
// shard order; tasks that wait on a failed one do not run.
func RunSharded(in *model.Instance, plan *topology.ShardPlan, cfg ShardedConfig) (*ShardedResult, error) {
	r, err := newShardedRun(in, plan, cfg)
	if err != nil {
		return nil, err
	}
	for _, err := range runTaskGraph(shardTaskDeps(r.plan), cfg.Workers, r.runTask) {
		if err != nil {
			return nil, err
		}
	}
	// No task writes the merged placement any more.
	invariant.CheckStorage(in, r.merged, "sharded: merge") // Eq. 6 needs no finalized parent
	return r.result(), nil
}

// The stages of a shard. Task st·S+s is stage st of shard s, so every edge
// of shardTaskDeps runs from a lower task number to a higher one and
// ascending numbers are the serial order.
const (
	stageSolve = iota
	stageReconcile
	stageAccount
	numStages
)

// shardTaskDeps returns, for each task of a sharded run over plan, the
// tasks it waits for, ascending (task numbering as above). With view(s) the
// owned nodes plus the halo of shard s:
//   - solve(s) waits for nothing;
//   - reconcile(s) waits for solve(t) of every shard t owning a node of
//     view(s), and for reconcile(t) of every t < s whose view shares a node
//     with view(s);
//   - account(s) waits for reconcile(t) of every shard t owning a node of
//     view(s).
func shardTaskDeps(plan *topology.ShardPlan) [][]int {
	S := plan.NumShards
	// viewers[v] lists the shards whose view holds node v, ascending.
	viewers := make([][]int, len(plan.NodeShard))
	for s := 0; s < S; s++ {
		for _, v := range plan.Shards[s] {
			viewers[v] = append(viewers[v], s)
		}
		for _, v := range plan.Halo(s) {
			viewers[v] = append(viewers[v], s)
		}
	}
	deps := make([][]int, numStages*S)
	owner := make([]bool, S)
	overlap := make([]bool, S)
	for s := 0; s < S; s++ {
		clear(owner)
		clear(overlap)
		for _, view := range [][]int{plan.Shards[s], plan.Halo(s)} {
			for _, v := range view {
				owner[plan.NodeShard[v]] = true
				for _, t := range viewers[v] {
					overlap[t] = overlap[t] || t < s
				}
			}
		}
		var rec, acct, earlier []int
		for t := 0; t < S; t++ {
			if owner[t] {
				rec = append(rec, stageSolve*S+t)
				acct = append(acct, stageReconcile*S+t)
			}
			if overlap[t] {
				earlier = append(earlier, stageReconcile*S+t)
			}
		}
		deps[stageReconcile*S+s] = append(rec, earlier...)
		deps[stageAccount*S+s] = acct
	}
	return deps
}

// runTaskGraph runs every task t = 0 … len(deps)−1 once all of deps[t] —
// lower-numbered tasks only — have finished, on up to workers goroutines
// (0 = GOMAXPROCS). An idle worker takes the lowest-numbered ready task, so
// one worker, which runs inline, goes in ascending order. A task that fails,
// or waits on one that failed or was skipped, has its dependents skipped.
// errs[t] is task t's error; skipped tasks leave it nil.
func runTaskGraph(deps [][]int, workers int, run func(t int) error) (errs []error) {
	n := len(deps)
	errs = make([]error, n)
	failed := make([]bool, n) // failed or skipped
	waiting := make([]int, n) // unfinished dependencies
	next := make([][]int, n)  // dependents
	ready := make([]bool, n)
	for t, ds := range deps {
		waiting[t] = len(ds)
		ready[t] = len(ds) == 0
		for _, d := range ds {
			next[d] = append(next[d], t)
		}
	}
	left := n
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	// finish retires t and readies the dependents it was the last wait of;
	// a dependent of a failed task retires unrun. Called with mu held.
	var finish func(t int)
	finish = func(t int) {
		left--
		for _, u := range next[t] {
			failed[u] = failed[u] || failed[t]
			if waiting[u]--; waiting[u] == 0 {
				if failed[u] {
					finish(u)
				} else {
					ready[u] = true
				}
			}
		}
	}
	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for left > 0 {
			t := slices.Index(ready, true)
			if t < 0 {
				cond.Wait()
				continue
			}
			ready[t] = false
			mu.Unlock()
			err := run(t)
			mu.Lock()
			errs[t], failed[t] = err, err != nil
			finish(t)
			cond.Broadcast()
		}
	}

	if workers = min(bb.ResolveWorkers(workers), n); workers <= 1 {
		work()
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return errs
}

// shardedRun carries one RunSharded call: the inputs every task reads and
// the per-shard slots the tasks fill.
type shardedRun struct {
	in          *model.Instance
	plan        *topology.ShardPlan
	cfg         ShardedConfig
	reqsByShard [][]int // owned requests per shard, ascending
	reqsByNode  [][]int // requests per home node, ascending
	// merged is the merged placement: the solves scatter into it and
	// reconciliation edits it in place.
	merged model.Placement
	// pinned[i·V+v] marks instance (service i, parent node v) as relied upon
	// by a reconciled shard's own requests; see reconcile.
	pinned []bool
	// halo and eval hold each shard's halo view and reconciliation
	// evaluator for its account task; nil when the shard has no halo.
	halo []*model.ShardInstance
	eval []*model.DeltaEvaluator

	took     []time.Duration // per task
	shards   []ShardRun
	probes   []int // reconciliation probes per shard
	removed  []int // reconciliation removals per shard
	accounts []shardAccount
}

// shardAccount is one shard's own requests evaluated on its halo view.
type shardAccount struct {
	lat      float64
	unserved int
	late     int
}

// newShardedRun validates the plan and splits the requests by shard and by
// home node.
func newShardedRun(in *model.Instance, plan *topology.ShardPlan, cfg ShardedConfig) (*shardedRun, error) {
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
	return &shardedRun{
		in: in, plan: plan, cfg: cfg, reqsByShard: reqsByShard, reqsByNode: reqsByNode,
		merged:   model.NewPlacement(in.M(), in.V()),
		pinned:   make([]bool, in.M()*in.V()),
		halo:     make([]*model.ShardInstance, S),
		eval:     make([]*model.DeltaEvaluator, S),
		took:     make([]time.Duration, numStages*S),
		shards:   make([]ShardRun, S),
		probes:   make([]int, S),
		removed:  make([]int, S),
		accounts: make([]shardAccount, S),
	}, nil
}

// runTask runs task t of the graph and records its time.
func (r *shardedRun) runTask(t int) error {
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	t0 := time.Now()
	var err error
	switch s := t % r.plan.NumShards; t / r.plan.NumShards {
	case stageSolve:
		err = r.solve(s)
	case stageReconcile:
		err = r.reconcile(s)
	default:
		err = r.account(s)
	}
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	r.took[t] = time.Since(t0)
	return err
}

// result sums the shards' slots, in ascending shard order, into the merged
// outcome.
func (r *shardedRun) result() *ShardedResult {
	S := r.plan.NumShards
	res := &ShardedResult{Placement: r.merged, Shards: r.shards}
	for s := 0; s < S; s++ {
		res.SolveTime += r.took[stageSolve*S+s]
		res.ReconcileTime += r.took[stageReconcile*S+s]
		res.AccountTime += r.took[stageAccount*S+s]
		res.ReconcileProbes += r.probes[s]
		res.ReconcileRemoved += r.removed[s]
		res.LatencySum += r.accounts[s].lat
		res.Unserved += r.accounts[s].unserved
		res.DeadlineViolated += r.accounts[s].late
	}
	res.Cost = r.in.DeployCost(r.merged)
	res.Objective = r.in.Objective(res.Cost, res.LatencySum)
	res.BudgetMet = res.Cost <= r.in.Budget+model.FeasTol
	return res
}

// budget is shard s's share of the parent budget: its demand share, floored
// at the service-continuity cost Σκ over the services its own requests use
// (preprov deploys each used service at least once; a budget below that
// floor is unmeetable by construction).
func (r *shardedRun) budget(s int) float64 {
	in := r.in
	used := make([]bool, in.M())
	floor := 0.0
	for _, h := range r.reqsByShard[s] {
		for _, svc := range in.Workload.Requests[h].Chain {
			if !used[svc] {
				used[svc] = true
				floor += in.Workload.Catalog.Service(svc).DeployCost
			}
		}
	}
	share := 0.0
	if total := float64(len(in.Workload.Requests)); total > 0 {
		share = in.Budget * float64(len(r.reqsByShard[s])) / total
	}
	return math.Max(share, floor)
}

// solve is task solve(s): shard s's pipeline solved on its own, its owned
// columns scattered into the merged placement. Shards own disjoint node
// columns, so the merge is conflict-free by construction.
func (r *shardedRun) solve(s int) error {
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	t := time.Now()
	own := r.plan.Shards[s]
	reqs := r.reqsByShard[s]
	st := ShardRun{Shard: s, Nodes: len(own), Requests: len(reqs)}
	si, err := model.NewShardInstance(r.in, own, len(own), reqs, len(reqs))
	if err != nil {
		return fmt.Errorf("combine: shard %d: %w", s, err)
	}
	local := model.NewPlacement(r.in.M(), len(own))
	if len(reqs) == 0 {
		// No demand: nothing to place on this shard.
		st.BudgetMet = true
	} else {
		si.Sub.Budget = r.budget(s)
		part := partition.Build(si.Sub, r.cfg.Partition)
		pre := preprov.Run(si.Sub, part)
		res := Run(si.Sub, part, pre.Placement, r.cfg.Combine)
		local = res.Placement
		st.Instances = local.Instances()
		st.BudgetMet = res.BudgetMet
	}
	//socllint:ignore detrand elapsed wall time is telemetry, never branched on
	st.SolveTime = time.Since(t)
	// Per-shard Eq. 5/6 recheck before the merge; Eq. 4 is rechecked by
	// CheckShardMerge once the merged placement is evaluated.
	invariant.CheckStorage(si.Sub, local, fmt.Sprintf("sharded: shard %d solve", s))
	if st.BudgetMet {
		invariant.CheckBudget(si.Sub, local, fmt.Sprintf("sharded: shard %d solve", s))
	}
	si.ScatterOwn(local, r.merged)
	r.shards[s] = st
	return nil
}

// buildHalo builds shard s's halo view of the merged placement: its owned
// nodes plus the neighbors' facing gateways, its owned requests plus the
// servable halo requests.
func (r *shardedRun) buildHalo(s int) (*model.ShardInstance, error) {
	in, merged, M := r.in, r.merged, r.in.M()
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

// reconcile is task reconcile(s): shard s's boundary fix-up on its halo
// view. It sees every removal an earlier shard with an overlapping view
// committed, as the serial ascending pass did.
//
// Cross-shard safety: when shard s sheds an instance, its requests may now
// route through a neighbor's boundary instance — a reliance s's guard can
// see but the neighbor's cannot (s's interior requests are outside every
// other shard's halo view). After each shard commits, the boundary
// instances its own requests route through are pinned, and later shards
// skip pinned candidates. Without the pin-set, shard s can shed an
// instance relying on t's gateway and t (reconciling later, guarding only
// its own halo view) can shed that gateway, stranding s's requests. A pin
// sits on a node of both views, so the two reconciles are ordered.
func (r *shardedRun) reconcile(s int) error {
	if len(r.plan.Halo(s)) == 0 {
		return nil
	}
	merged, M, V := r.merged, r.in.M(), r.in.V()
	si, err := r.buildHalo(s)
	if err != nil {
		return err
	}
	de := model.NewDeltaEvaluator(si.Sub, si.Restrict(merged), model.RouteModeOptimal,
		stats.SplitSeed(r.cfg.Seed, fmt.Sprintf("shard/%d", s)))
	r.halo[s], r.eval[s] = si, de
	// Ranking and gating read the evaluator's summary; no Evaluation is
	// materialized.
	base := de.Summary()
	// Candidates: the shard's own gateway instances, ascending
	// (service, node) — the only placements a cross-shard reliance can make
	// redundant.
	gwLocal := localIndex(r.plan.Gateways[s], si.Nodes[:si.OwnNodes])
	for i := 0; i < M; i++ {
		for _, k := range gwLocal {
			if !de.Placement().Has(i, k) || r.pinned[i*V+si.Nodes[k]] {
				continue
			}
			r.probes[s]++
			obj, _ := de.ProbeRemoval(i, k)
			if !(obj < base.Objective-boundaryImproveTol) {
				continue
			}
			dl := de.Apply(i, k, false)
			sum := de.Summary()
			if sum.Unserved() <= base.Unserved() && sum.DeadlineViolated <= base.DeadlineViolated {
				merged.Set(i, si.Nodes[k], false)
				base = sum
				r.removed[s]++
			} else {
				// The objective improved by shedding cost while a request
				// went unserved or late: roll back.
				de.Revert(dl)
			}
		}
	}
	// Pin every boundary instance this shard's own requests route through
	// under the committed placement. Over-pinning (a route that merely
	// prefers a boundary instance it does not need) only forgoes a later
	// removal; under-pinning strands requests. A rolled-back probe leaves
	// the routes it re-routed stale, so the routes are brought up to date
	// under the committed placement first.
	de.Summary()
	for h := 0; h < si.OwnReqs; h++ {
		nodes := de.RouteNodes(h)
		if nodes == nil {
			continue
		}
		chain := si.Sub.Workload.Requests[h].Chain
		for j, kn := range nodes {
			if kn >= si.OwnNodes {
				r.pinned[chain[j]*V+si.Nodes[kn]] = true
			}
		}
	}
	return nil
}

// account is task account(s): shard s's own requests evaluated on its halo
// view under the final merged placement. Neighbors' reconciliation may have
// moved boundary instances since s reconciled, so the shard's evaluator
// advances to the view's current bits (re-routing only the requests whose
// services moved; its reads equal a scratch evaluation's bit for bit). A
// shard without a halo never reconciled and evaluates its view from scratch.
// Either is read through model.EvalView; an Evaluation is materialized only
// for the armed merge check.
func (r *shardedRun) account(s int) error {
	var v model.EvalView
	si, de := r.halo[s], r.eval[s]
	if de != nil {
		de.AdvanceTo(si.Restrict(r.merged))
		de.Summary() // brings every request's latency up to date
		v = de
		r.halo[s], r.eval[s] = nil, nil
	} else {
		var err error
		if si, err = r.buildHalo(s); err != nil {
			return err
		}
		v = si.Sub.Evaluate(si.Restrict(r.merged))
	}
	if invariant.Enabled {
		invariant.CheckShardMerge(si.Sub, v.Eval(), false, fmt.Sprintf("sharded: shard %d account", s))
	}
	a := &r.accounts[s]
	for h := 0; h < si.OwnReqs; h++ {
		l := v.Latency(h)
		a.lat += l
		if math.IsInf(l, 1) {
			a.unserved++
		} else if l > si.Sub.Workload.Requests[h].Deadline+model.FeasTol {
			a.late++
		}
	}
	return nil
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
