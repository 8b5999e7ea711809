// Package combine implements Algorithms 3–5 of the SoCL paper: multi-scale
// combination. Starting from the pre-provisioned placement 𝒫^t it merges
// instances at two granularities:
//
//   - large-scale (parallel) gradient descent: while the deployment cost
//     exceeds the budget, the ω-fraction of instances with the smallest
//     latency loss ζ (Eq. 14) — after dependency-conflict filtering — is
//     combined in one batch (Algorithm 3 lines 1–5, Algorithm 4);
//   - small-scale (serial) gradient descent: instances are removed one at a
//     time while the objective gradient δ = Q' − Q” + Θ stays positive,
//     with storage planning (Algorithm 5, FuzzyAHP local demand factor ρ)
//     and a deadline roll-back that re-adds and freezes instances whose
//     removal violates constraint (4).
//
// Internal bookkeeping mirrors the paper's connection model: every request
// step maintains a reliance — the instance serving it — updated by the
// connection rule (same partition group preferred, then highest channel
// speed from the user's home server).
//
// # Incremental engine invariants
//
// The hot path (ζ scoring and the exact deadline check) runs on an
// incremental engine (incremental.go) whose correctness rests on three
// invariants, each preserved by every placement/reliance mutation:
//
//  1. Candidate coherence: state.idx, the index of the run's
//     model.DeltaEvaluator, always indexes the live placement. Every
//     placement mutation is an Apply through state.setPlace, and a roll-back
//     Reverts them, so cached per-service node lists equal Placement.NodesOf
//     at all times (a write around the evaluator panics as a stale binding).
//  2. Reliance-index coherence: state.relyIdx holds, for each live instance,
//     the ascending (h,t) list of steps relying on it — exactly the pairs
//     with rel[h][t]==node and Chain[t]==svc. A re-homing merges the moved
//     steps into each destination's list: in place while no snapshot has
//     been taken, and once one has, into a fresh list, never editing a
//     published one, so a snapshot keeps the list headers and a restore
//     puts them back. The ascending order makes ζ's float summation
//     bit-identical to a full scan of rel.
//  3. The deadline check reads the evaluator; a roll-back reverts the step's
//     deltas. DeltaEvaluator.AnyLate is exact (a valid cached route is the
//     request's true optimum), returns at the first valid entry that is
//     already late, and otherwise re-routes only the invalid entries. A
//     serial step records its Apply deltas and a roll-back Reverts them in
//     LIFO order, which restores the placement and every cached route the
//     step did not re-route. The evaluator is refreshed under the pre-step
//     placement before each snapshot a roll-back can restore (a step that
//     leaves storage short is accepted unexamined), so what a roll-back
//     brings back is valid.
//
// The engine is the only implementation. Its full-rescan reference, refRun in
// reference_test.go, re-derives every cached structure from scratch and is
// differentially tested to produce bit-identical placements and statistics.
package combine

import (
	"math"
	"sort"

	"repro/internal/fuzzy"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/partition"
)

// theta is the paper's Θ = 1: the positive disturbance that keeps the serial
// descent running through small objective rebounds.
const theta = 1.0

// warmBias is added to a warm instance's ζ when ordering removal candidates:
// warm instances resist removal by 2Θ latency units, trading a bounded amount
// of objective for fewer container cold-starts.
const warmBias = 2 * theta

// Config holds the combination hyper-parameters.
type Config struct {
	// Omega is ω: the fraction of instances combined per parallel batch.
	Omega float64
	// Warm, when non-zero, marks instances that were already running in the
	// previous decision slot. They resist removal by warmBias, and equal-rank
	// ties are broken toward removing cold instances first, so warm instances
	// survive whenever the objective is indifferent — reducing placement
	// churn in online operation.
	Warm model.Placement
}

// DefaultConfig returns ω=0.25.
func DefaultConfig() Config { return Config{Omega: 0.25} }

// Result reports the combination outcome.
type Result struct {
	Placement  model.Placement
	BudgetMet  bool // deployment cost ≤ 𝒦^max after the parallel phase
	Combined   int  // instances removed in total
	RolledBack int  // deadline roll-backs in the serial phase
	Migrated   int  // storage-planning migrations
	ParallelRounds,
	SerialRounds int

	// Incremental-engine telemetry: the evaluator's Hits and Recomputed,
	// counted per refresh (the one before a snapshot, and a deadline check no
	// valid entry had already decided). RouteCacheHits counts the requests a
	// refresh found with a still-valid route, RouteRecomputed those it
	// re-routed. A check that a cached violation decides refreshes nothing,
	// so hits + recomputed is not checks × requests.
	RouteCacheHits  int
	RouteRecomputed int
}

type instKey struct{ svc, node int }

// cloudNode is the reliance marker for steps served by the cloud fallback.
const cloudNode = -2

// notPicked marks a memoized reliance not yet decided: pickReliance returns
// a node, -1 or cloudNode, never this.
const notPicked = -3

type state struct {
	in      *model.Instance
	part    *partition.Result
	place   model.Placement
	rel     [][]int // reliance[h][t] = serving node, or cloudNode
	relFlat []int   // rel's rows back to back: one copy snapshots them all
	frozen  map[instKey]bool
	weights []float64
	cost    float64
	warm    map[instKey]bool // instances running in the previous slot

	// Incremental engine (see incremental.go and the package comment's
	// invariants).
	ev          *model.DeltaEvaluator // the deadline check's route cache, over place
	idx         *model.PlacementIndex // ev's index: cached candidate node lists
	step        []*model.Delta        // Applies since the last snapshot, in order
	deadlines   bool                  // some request has a finite deadline
	relyIdx     [][]int               // [svc·|V|+node] → ascending packed relying steps (packStep)
	rehomed     []int                 // rehome's scratch: moved steps grouped by destination
	rehomeEnd   []int                 // rehome's per-node group bounds, zero between calls
	snapped     bool                  // saveSnapshot has run: relyIdx lists are replaced, never edited
	zetaMemo    []float64             // [svc·|V|+node] memoized ζ, NaN = unset
	latRow      []float64             // per-request ψ rows for starObjective
	latRowDirty []bool                // rows needing re-derivation
	memo        homeMemo              // zeta's and rehome's per-home decisions
	instSet     []scoredInst          // updateInstanceSet's list, reused call over call
	instMiss    []int                 // updateInstanceSet's scratch

	// Static memoization (pure functions of the instance and partition,
	// never of the mutable placement).
	groupTab [][]int     // service → per-node partition group, -1 outside; nil row = no partition
	rhoCache [][]float64 // localDemandFactor (svc, node), NaN = unset
	snap     snapState   // reusable serial-step snapshot buffers

	// idxWatch memoizes index-coherence verification by epoch; inert (and
	// all its uses free) without the soclinvariants build tag.
	idxWatch invariant.IndexWatch
}

// at is the dense (service, node) position shared by relyIdx and zetaMemo.
func (s *state) at(svc, node int) int { return svc*s.in.V() + node }

// setPlace mutates the placement through the evaluator, keeping its index
// and route cache coherent (invariant 1), and records the delta so a
// roll-back can revert it (invariant 3; saveSnapshot starts a new step).
func (s *state) setPlace(i, k int, val bool) {
	s.step = append(s.step, s.ev.Apply(i, k, val))
}

// nodesOf returns service i's hosting nodes, ascending, off the index.
func (s *state) nodesOf(i int) []int { return s.idx.NodesOf(i) }

// newState assembles the combination state over a private copy of pre: the
// static tables, then the incremental engine, whose evaluator (bound to the
// whole instance: deadlines are read live) provides the candidate index the
// initial reliance pass already reads.
func newState(in *model.Instance, part *partition.Result, pre model.Placement, cfg Config) *state {
	s := &state{
		in:      in,
		part:    part,
		place:   pre.Clone(),
		frozen:  make(map[instKey]bool),
		weights: fuzzy.SoCLWeights(),
		warm:    make(map[instKey]bool),
	}
	for i := range cfg.Warm.X {
		for k, on := range cfg.Warm.X[i] {
			if on {
				s.warm[instKey{i, k}] = true
			}
		}
	}
	s.cost = in.DeployCost(s.place)
	s.buildStaticTables()
	s.ev = model.NewDeltaEvaluator(in, s.place, model.RouteModeOptimal, 0)
	s.idx = s.ev.Index()
	s.initReliance()
	s.initIncremental()
	return s
}

// Run executes the multi-scale combination on the pre-provisioned placement.
func Run(in *model.Instance, part *partition.Result, pre model.Placement, cfg Config) Result {
	if cfg.Omega <= 0 || cfg.Omega > 1 {
		cfg.Omega = 0.25
	}
	// A safety net on each phase's iterations.
	maxRounds := in.M()*in.V() + 16
	s := newState(in, part, pre, cfg)

	res := Result{}
	res.BudgetMet = s.parallelPhase(cfg, maxRounds, &res)
	if res.BudgetMet {
		invariant.CheckBudget(in, s.place, "combine: after parallel phase")
	}
	s.checkPhaseInvariants("after parallel phase")
	s.serialPhase(maxRounds, &res)
	s.checkPhaseInvariants("after serial phase")
	// Final storage repair: the parallel phase does not run Algorithm 5, so
	// a placement can exit the loop budget-feasible but storage-tight.
	if s.storagePlanning(&res) {
		invariant.CheckStorage(in, s.place, "combine: final storage planning")
	}
	s.checkPhaseInvariants("after final storage planning")
	res.Placement = s.place
	res.RouteCacheHits = s.ev.Hits
	res.RouteRecomputed = s.ev.Recomputed
	return res
}

// --- reliance bookkeeping ---

// buildStaticTables precomputes lookups that depend only on the instance
// and the (immutable) partition: the per-service node→group table replacing
// ServicePartition.GroupOf's linear scan in pickReliance, and
// the lazy memo for the FuzzyAHP local demand factor ρ (a pure function of
// the workload). Neither changes an observable value.
func (s *state) buildStaticTables() {
	s.groupTab = make([][]int, s.in.M())
	for svc, sp := range s.part.ByService {
		if sp == nil {
			continue
		}
		row := make([]int, s.in.V())
		for k := range row {
			row[k] = -1
		}
		// First group wins, mirroring GroupOf's scan order.
		for g := range sp.Groups {
			for _, n := range sp.Groups[g].Members {
				if row[n] == -1 {
					row[n] = g
				}
			}
			for _, n := range sp.Groups[g].Candidates {
				if row[n] == -1 {
					row[n] = g
				}
			}
		}
		s.groupTab[svc] = row
	}
	s.rhoCache = make([][]float64, s.in.M())
	for i := range s.rhoCache {
		s.rhoCache[i] = make([]float64, s.in.V())
		for k := range s.rhoCache[i] {
			s.rhoCache[i][k] = math.NaN()
		}
	}
}

// initReliance applies the connection rule to every request step. The rows
// of rel are windows of one backing array, so a snapshot is a single copy.
// Nothing moves the placement meanwhile, so the rule is decided once per
// (service, home node) and read from a table for every other step.
func (s *state) initReliance() {
	reqs := s.in.Workload.Requests
	steps := 0
	for h := range reqs {
		steps += len(reqs[h].Chain)
	}
	picks := make([]int, s.in.M()*s.in.V()) // [svc·|V|+home], notPicked = unset
	for i := range picks {
		picks[i] = notPicked
	}
	s.relFlat = make([]int, steps)
	s.rel = make([][]int, len(reqs))
	off := 0
	for h := range reqs {
		n := len(reqs[h].Chain)
		s.rel[h] = s.relFlat[off : off+n : off+n]
		off += n
		for t, svc := range reqs[h].Chain {
			at := s.at(svc, reqs[h].Home)
			if picks[at] == notPicked {
				picks[at] = s.pickReliance(reqs[h].Home, svc, -1)
			}
			s.rel[h][t] = picks[at]
		}
	}
}

// pickReliance applies the connection-update rule for service svc's steps
// homed on node home, excluding node `excl` (-1 for none): prefer instances
// in the same partition group as the home server, then the highest virtual
// channel speed (equivalently the lowest path cost) from home. Returns -1
// when the service has no instance other than excl. A step's answer depends
// on the step only through its home and service, which is what the
// per-home memo (homeMemo) and initReliance's table rest on.
func (s *state) pickReliance(home, svc, excl int) int {
	groups := s.groupTab[svc] // nil when the service has no partition
	homeGroup := -1
	if groups != nil {
		homeGroup = groups[home]
	}
	best, bestCost, bestInGroup := -1, math.Inf(1), false
	for _, k := range s.nodesOf(svc) {
		if k == excl {
			continue
		}
		inGroup := homeGroup != -1 && groups[k] == homeGroup
		c := s.in.Graph.PathCost(home, k)
		// Group preference dominates; within a class, lowest cost wins.
		if best == -1 || (inGroup && !bestInGroup) ||
			(inGroup == bestInGroup && c < bestCost) {
			best, bestCost, bestInGroup = k, c, inGroup
		}
	}
	if best == -1 && s.in.Cloud != nil {
		return cloudNode
	}
	return best
}

// stepData returns the data volume entering request h's step t.
func (s *state) stepData(h, t int) float64 {
	req := &s.in.Workload.Requests[h]
	if t == 0 {
		return req.DataIn
	}
	return req.EdgeData[t-1]
}

// stepLatency is the ψ contribution of serving (h,t) at node k: transfer of
// the step's data from home plus compute time. Pure in (h,t,k), and cheap
// enough to recompute: a run reads a few thousand of the |U|·L·|V| values a
// table would hold.
func (s *state) stepLatency(h, t, k int) float64 {
	req := &s.in.Workload.Requests[h]
	return s.term(req.Home, req.Chain[t], k).at(s.stepData(h, t))
}

// pathTerm is what a step's latency at a node depends on besides the data
// entering the step: the transfer cost per unit of data from the step's
// home, the service's compute time there, and whether the node is
// unreachable from home. It depends on the step only through its home and
// service, so ζ decides it once per home node (homeMemo).
type pathTerm struct {
	c, comp     float64
	unreachable bool
}

// term returns the path term of serving service svc at node k (or the cloud)
// for a step homed on node home.
func (s *state) term(home, svc, k int) pathTerm {
	compute := s.in.Workload.Catalog.Service(svc).Compute
	if k == cloudNode {
		// Cloud-served step: WAN transfer of the step's data plus cloud
		// compute (the evaluator's whole-request fallback is the
		// per-request analogue; see model.CloudConfig).
		return pathTerm{c: s.in.Cloud.TransferCost, comp: compute / s.in.Cloud.Compute}
	}
	c := s.in.Graph.PathCost(home, k)
	if math.IsInf(c, 1) {
		return pathTerm{unreachable: true}
	}
	return pathTerm{c: c, comp: compute / s.in.Graph.Node(k).Compute}
}

// at is the step latency for d units of data entering the step.
func (p pathTerm) at(d float64) float64 {
	if p.unreachable {
		return 1e12
	}
	return d*p.c + p.comp
}

// starRow is request h's ψ row: its chain's step latencies summed in
// t-order under the current reliances, +Inf when a step has no serving
// instance. Rows are the unit of starObjective's incremental cache; a
// from-scratch total sums the same rows in the same order, so the two are
// bitwise identical.
func (s *state) starRow(h int) float64 {
	row := 0.0
	for t, k := range s.rel[h] {
		if k == -1 {
			return math.Inf(1)
		}
		row += s.stepLatency(h, t, k)
	}
	return row
}

// starObjective is the internal Q of Algorithm 3: λ·cost + (1−λ)·Σψ over
// current reliances. It keeps one ψ row per request, re-deriving only rows
// whose reliances changed since the last call (latRowDirty, set wherever
// rehome moves a step). A +Inf row means a reliance-less step, which
// makes the whole objective +Inf regardless of λ — matching the historical
// early return.
func (s *state) starObjective() float64 {
	lat := 0.0
	for h := range s.latRow {
		if s.latRowDirty[h] {
			s.latRow[h] = s.starRow(h)
			s.latRowDirty[h] = false
		}
		if math.IsInf(s.latRow[h], 1) {
			return math.Inf(1)
		}
		lat += s.latRow[h]
	}
	return s.in.Objective(s.cost, lat)
}

// --- latency loss (Algorithm 4) ---

// zeta computes ζ_{i,k} (Eq. 14) for the instance (svc, node): the latency
// increase of moving every relying step to its best alternative. +Inf when
// some step would have no alternative. The reverse reliance index makes the
// cost O(relying steps), visited in ascending (h,t) order — the order a full
// scan of rel would sum them in. The alternative and both path terms are
// decided once per home node (homeMemo); each step adds
// stepLatency(h,t,alt) − stepLatency(h,t,node) bit for bit.
func (s *state) zeta(svc, node int) float64 {
	s.memo.open(svc, node)
	reqs := s.in.Workload.Requests
	loss := 0.0
	for _, ht := range s.relyIdx[s.at(svc, node)] {
		h, t := unpackStep(ht)
		e := s.decide(reqs[h].Home)
		if e.pick == -1 {
			return math.Inf(1) // no alternative and no cloud
		}
		d := s.stepData(h, t)
		loss += e.alt.at(d) - e.own.at(d)
	}
	return loss
}

type scoredInst struct {
	key  instKey
	zeta float64
}

// updateInstanceSet is Algorithm 4: the eligible instances with their ζ,
// sorted ascending (highest combination priority first). Services reduced
// to a single instance are excluded to preserve service continuity. ζ
// values are served from the per-service memo — a mutation of service i
// invalidates only i's row, because ζ(i,k) depends solely on i's candidate
// set and relying steps — so a serial round rescores one service instead of
// the whole deployment. The list is valid until the next call, which reuses
// its array.
func (s *state) updateInstanceSet() []scoredInst {
	out := s.instSet[:0]
	miss := s.instMiss[:0] // indices of out lacking a memoized ζ
	for _, svc := range s.part.Index.ServicesUsed() {
		nodes := s.nodesOf(svc)
		// Line 2-3: single-instance services are skipped for continuity —
		// unless the cloud fallback exists, in which case even the last
		// instance may combine (the service then runs from the cloud).
		if len(nodes) <= 1 && s.in.Cloud == nil {
			continue
		}
		for _, k := range nodes {
			key := instKey{svc, k}
			if s.frozen[key] {
				continue
			}
			if z := s.zetaMemo[s.at(svc, k)]; !math.IsNaN(z) {
				out = append(out, scoredInst{key, z})
			} else {
				miss = append(miss, len(out))
				out = append(out, scoredInst{key, 0})
			}
		}
	}
	for _, i := range miss {
		out[i].zeta = s.zeta(out[i].key.svc, out[i].key.node)
		s.zetaMemo[s.at(out[i].key.svc, out[i].key.node)] = out[i].zeta
	}
	s.instSet, s.instMiss = out, miss
	// Removal priority: warm instances resist removal by warmBias latency
	// units; exact ties still break cold-first (churn bias).
	rank := func(sc scoredInst) float64 {
		if s.warm[sc.key] && !math.IsInf(sc.zeta, 1) {
			return sc.zeta + warmBias
		}
		return sc.zeta
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		wi, wj := s.warm[out[i].key], s.warm[out[j].key]
		if wi != wj {
			return !wi // cold sorts first (combined first)
		}
		if out[i].key.svc != out[j].key.svc {
			return out[i].key.svc < out[j].key.svc
		}
		return out[i].key.node < out[j].key.node
	})
	return out
}

// removeInstance deletes (svc,node) and re-homes every relying step, which
// come straight off the reverse index (invariant 2).
func (s *state) removeInstance(svc, node int) {
	s.setPlace(svc, node, false)
	s.cost -= s.in.Workload.Catalog.Service(svc).DeployCost
	s.rehome(svc, node)
}

// --- large-scale parallel phase (Algorithm 3 lines 1–5) ---

func (s *state) parallelPhase(cfg Config, maxRounds int, res *Result) bool {
	for round := 0; round < maxRounds; round++ {
		if s.cost <= s.in.Budget {
			return true
		}
		list := s.updateInstanceSet()
		if len(list) == 0 {
			return s.cost <= s.in.Budget
		}
		batch := int(math.Ceil(cfg.Omega * float64(len(list))))
		if batch < 1 {
			batch = 1
		}
		if batch > len(list) {
			batch = len(list)
		}
		omega := list[:batch]
		omega = s.filterDependencyConflicts(omega)

		removedAny := false
		for _, inst := range omega {
			if s.cost <= s.in.Budget {
				break
			}
			if math.IsInf(inst.zeta, 1) {
				continue
			}
			// Never remove below one instance even if the batch contains
			// several instances of the same service — unless the cloud
			// fallback can absorb the service entirely. The live Count
			// already reflects this batch's removals, so it is compared
			// against the floor directly (an earlier revision subtracted a
			// per-service removal tally on top, double-counting removals and
			// skipping legal ones).
			floor := 1
			if s.in.Cloud != nil {
				floor = 0
			}
			if len(s.nodesOf(inst.key.svc)) <= floor {
				continue
			}
			if !s.place.Has(inst.key.svc, inst.key.node) {
				continue
			}
			s.removeInstance(inst.key.svc, inst.key.node)
			res.Combined++
			removedAny = true
		}
		res.ParallelRounds++
		if !removedAny {
			return s.cost <= s.in.Budget
		}
	}
	return s.cost <= s.in.Budget
}

// filterDependencyConflicts implements line 4 of Algorithm 3: when two
// batch instances belong to services adjacent in some user's dependency
// chain, the one with the larger ζ is discarded. It filters omega in place.
func (s *state) filterDependencyConflicts(omega []scoredInst) []scoredInst {
	drop := make([]bool, len(omega))
	for i := 0; i < len(omega); i++ {
		for j := i + 1; j < len(omega); j++ {
			if drop[i] || drop[j] {
				continue
			}
			a, b := omega[i].key.svc, omega[j].key.svc
			if a == b || !s.part.Index.ChainAdjacent(a, b) {
				continue
			}
			if omega[i].zeta >= omega[j].zeta {
				drop[i] = true
			} else {
				drop[j] = true
			}
		}
	}
	out := omega[:0]
	for i, inst := range omega {
		if !drop[i] {
			out = append(out, inst)
		}
	}
	return out
}

// --- small-scale serial phase (Algorithm 3 lines 6–15) ---

func (s *state) serialPhase(maxRounds int, res *Result) {
	for round := 0; round < maxRounds; round++ {
		list := s.updateInstanceSet()
		if len(list) == 0 {
			return
		}
		inst := list[0] // argmin ζ
		if math.IsInf(inst.zeta, 1) {
			return
		}
		qBefore := s.starObjective()
		// A roll-back must bring back routes that are valid for the
		// placement it restores (invariant 3): route whatever is still
		// unrouted now, under the pre-step placement. Not when the removal
		// leaves storage short, though: that step is accepted unexamined
		// below and nothing ever rolls it back.
		if s.deadlines && !s.storageShort(inst.key.svc) {
			s.ev.EvalObjective()
		}
		s.saveSnapshot(res)
		s.removeInstance(inst.key.svc, inst.key.node)
		res.SerialRounds++

		// Algorithm 5: storage planning after the combination.
		if !s.storagePlanning(res) {
			// Storage unsatisfiable at this size: keep combining (the
			// parallel loop's "continue" in line 17) — i.e., accept the
			// removal and move on.
			res.Combined++
			continue
		}

		// Constraint (4): exact deadline check with optimal routing. The
		// roll-back restores the full pre-step state — including any
		// storage migrations this step performed — so a rolled-back step
		// never leaves residual deadline damage.
		if s.deadlineViolated() {
			s.restoreSnapshot(res)
			s.frozen[inst.key] = true // never combine this instance again
			res.RolledBack++
			s.checkPhaseInvariants("after serial rollback")
			continue
		}

		qAfter := s.starObjective()
		delta := qBefore - qAfter + theta
		if delta <= 0 {
			// Objective rose beyond the disturbance: revert and stop.
			s.restoreSnapshot(res)
			s.checkPhaseInvariants("after serial revert")
			return
		}
		res.Combined++
		s.checkPhaseInvariants("after accepted serial step")
	}
}

// snapState captures reliances, cost, the frozen set and the migration
// counter for a full step undo; the placement and its cached routes come
// back by reverting the step's deltas (state.step). The frozen set must
// round-trip because the step's storage planning may migrate() a frozen
// instance away (un-freezing it); a rolled-back step must neither leak that
// deletion nor keep counting its undone migrations. Reverse-index lists are
// copied by header: once a snapshot has been taken (state.snapped), what
// they point at is immutable (re-homings install fresh slices), so sharing
// it with the snapshot is safe. The ζ memo round-trips too — a restored
// placement makes the pre-step values exact again, so a roll-back rescoring
// costs nothing.
//
// The buffers live on state.snap and are reused round over round — at most
// one snapshot is live at a time, and a restore copies contents back into
// the live structures rather than swapping slice headers, so the serial
// loop's own bookkeeping allocates nothing after the first round.
type snapState struct {
	rel         []int // state.relFlat
	cost        float64
	frozen      map[instKey]bool
	migrated    int
	relyIdx     [][]int
	zetaMemo    []float64
	latRow      []float64
	latRowDirty []bool
}

func (s *state) saveSnapshot(res *Result) {
	sn := &s.snap
	if sn.frozen == nil {
		sn.rel = make([]int, len(s.relFlat))
		sn.frozen = make(map[instKey]bool, len(s.frozen))
		sn.relyIdx = make([][]int, len(s.relyIdx))
		sn.zetaMemo = make([]float64, len(s.zetaMemo))
		sn.latRow = make([]float64, len(s.latRow))
		sn.latRowDirty = make([]bool, len(s.latRowDirty))
	} else {
		clear(sn.frozen)
	}
	s.step = s.step[:0]
	s.snapped = true
	copy(sn.rel, s.relFlat)
	for k, v := range s.frozen {
		sn.frozen[k] = v
	}
	sn.cost = s.cost
	sn.migrated = res.Migrated
	copy(sn.relyIdx, s.relyIdx)
	copy(sn.zetaMemo, s.zetaMemo)
	copy(sn.latRow, s.latRow)
	copy(sn.latRowDirty, s.latRowDirty)
}

func (s *state) restoreSnapshot(res *Result) {
	sn := &s.snap
	for i := len(s.step) - 1; i >= 0; i-- {
		s.ev.Revert(s.step[i])
	}
	s.step = s.step[:0]
	copy(s.relFlat, sn.rel)
	s.cost = sn.cost
	clear(s.frozen)
	for k, v := range sn.frozen {
		s.frozen[k] = v
	}
	res.Migrated = sn.migrated
	copy(s.relyIdx, sn.relyIdx)
	copy(s.zetaMemo, sn.zetaMemo)
	copy(s.latRow, sn.latRow)
	copy(s.latRowDirty, sn.latRowDirty)
}

// deadlineViolated checks constraint (4) under exact optimal routing,
// through the evaluator's route cache. A request whose chain lost its last
// instance is served by the cloud fallback when one exists and violates
// only if the cloud completion time misses the deadline.
func (s *state) deadlineViolated() bool {
	return s.deadlines && s.ev.AnyLate()
}

// --- storage planning (Algorithm 5) ---

// storagePlanning migrates low-priority instances off overflowing nodes to
// the nearest (fastest-link) node with room. Returns false when the total
// instance volume exceeds total storage (more combining required).
func (s *state) storagePlanning(res *Result) bool {
	in := s.in
	if s.storageShort(-1) {
		return false
	}
	for k := 0; k < in.V(); k++ {
		guard := 0
		for in.StorageUsed(s.place, k) > in.Graph.Node(k).Storage+model.FeasTol {
			guard++
			if guard > in.M()+1 {
				return false
			}
			j := s.lowestPriorityService(k)
			if j == -1 {
				return false
			}
			if !s.migrate(j, k, res) {
				return false
			}
		}
	}
	return true
}

// storageShort reports whether the live instances, less one of service
// `less` (-1 for none), need more storage in total than the substrate has —
// no migration can fix that, only more combining.
func (s *state) storageShort(less int) bool {
	in := s.in
	totalNeed := 0.0
	for i := 0; i < in.M(); i++ {
		n := len(s.nodesOf(i))
		if i == less {
			n--
		}
		totalNeed += float64(n) * in.Workload.Catalog.Service(i).Storage
	}
	return totalNeed > in.Graph.TotalStorage()+model.FeasTol
}

// lowestPriorityService returns the service on node k with the smallest
// local demand factor ρ (Definition 9), or -1 when the node is empty.
func (s *state) lowestPriorityService(k int) int {
	best, bestRho := -1, math.Inf(1)
	for i := 0; i < s.in.M(); i++ {
		if !s.place.Has(i, k) {
			continue
		}
		if rho := s.localDemandFactor(i, k); rho < bestRho {
			best, bestRho = i, rho
		}
	}
	return best
}

// localDemandFactor computes ρ_{v_k}^{m_i} by FuzzyAHP-weighted criteria:
// requesting users, chain-order factor ℝ, deployment cost, and (inverted)
// storage footprint. Higher ρ means higher keep-priority. ρ depends only on
// the workload — never on the placement — so values are memoized for the
// lifetime of the run.
func (s *state) localDemandFactor(svc, k int) float64 {
	if rho := s.rhoCache[svc][k]; !math.IsNaN(rho) {
		return rho
	}
	rho := s.computeDemandFactor(svc, k)
	s.rhoCache[svc][k] = rho
	return rho
}

func (s *state) computeDemandFactor(svc, k int) float64 {
	in := s.in
	cat := in.Workload.Catalog

	users := float64(s.part.Index.DemandCount(k, svc))
	var uf, ul, um float64
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		if req.Home != k {
			continue
		}
		switch req.Position(svc) {
		case "first":
			uf++
		case "last":
			ul++
		case "mid":
			um++
		}
	}
	order := 0.0
	if users > 0 {
		order = (3*uf + 2*ul + um) / users
	}

	// Normalizers: max user demand over all (node,service) pairs with this
	// service, max κ, max φ across the catalog.
	maxUsers := 1.0
	for _, d := range s.part.Index.DemandRow(svc) {
		if u := float64(d); u > maxUsers {
			maxUsers = u
		}
	}
	maxKappa, maxPhi := 1.0, 1.0
	for i := 0; i < in.M(); i++ {
		m := cat.Service(i)
		if m.DeployCost > maxKappa {
			maxKappa = m.DeployCost
		}
		if m.Storage > maxPhi {
			maxPhi = m.Storage
		}
	}
	m := cat.Service(svc)
	w := s.weights
	return w[fuzzy.CritUsers]*(users/maxUsers) +
		w[fuzzy.CritOrder]*(order/3) + // ℝ ∈ [0,3]
		w[fuzzy.CritCost]*(m.DeployCost/maxKappa) +
		w[fuzzy.CritStorage]*(1-m.Storage/maxPhi)
}

// migrate moves service svc off node k to the best-connected node with room
// and no existing instance, updating reliances. Returns false when no
// target fits.
func (s *state) migrate(svc, k int, res *Result) bool {
	in := s.in
	phi := in.Workload.Catalog.Service(svc).Storage
	// Targets ordered by channel speed from k, fastest first (line 11).
	type cand struct {
		q    int
		cost float64
	}
	var cands []cand
	for q := 0; q < in.V(); q++ {
		if q == k {
			continue
		}
		cands = append(cands, cand{q, in.Graph.PathCost(k, q)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].q < cands[j].q
	})
	for _, c := range cands {
		if s.place.Has(svc, c.q) {
			continue
		}
		if in.StorageUsed(s.place, c.q)+phi > in.Graph.Node(c.q).Storage+model.FeasTol {
			continue
		}
		// Move: deployment cost is unchanged (one instance either way). The
		// add goes first: it invalidates every route over svc, so the
		// removal finds nothing left to save.
		s.setPlace(svc, c.q, true)
		s.setPlace(svc, k, false)
		s.rehome(svc, k)
		delete(s.frozen, instKey{svc, k})
		res.Migrated++
		return true
	}
	return false
}
