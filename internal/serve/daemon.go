package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// DefaultResolveThreshold is the post-repair unserved fraction past which the
// default AutoPolicy escalates to a full re-solve.
const DefaultResolveThreshold = 0.25

// Config wires a Daemon to a substrate, a planner, and a reaction policy.
type Config struct {
	Graph   *topology.Graph
	Catalog *msvc.Catalog
	Lambda  float64 // Eq. 3 cost/latency trade-off
	Budget  float64 // Eq. 6 deployment budget
	Cloud   *model.CloudConfig

	Mode model.RoutingMode
	// RouteSeed seeds request routing; epoch e routes with RouteSeed+e.
	RouteSeed int64

	// Planner produces a full placement from scratch (the initial solve, the
	// replay-mode per-epoch plan, and AutoPolicy escalation). PlannerName
	// labels it in errors.
	Planner     func(*model.Instance) (model.Placement, error)
	PlannerName string

	// Policy reacts each epoch the placement is stale. Nil installs the
	// default (ReactionPolicy).
	Policy Policy

	// Replan switches the daemon into replay mode: every non-empty epoch
	// re-plans from scratch on the pre-strike substrate — the paper's
	// one-shot slot loop, and the mode sim.Run drives its daemon in. Serve
	// mode (false) solves once and afterwards reacts incrementally.
	Replan bool

	// MaxBatch caps admitted arrivals per epoch; the overflow is deferred to
	// the next epoch in admission order. 0 admits everything (required in
	// replay mode).
	MaxBatch int

	// Lifecycle enables the serverless instance lifecycle (serve mode only).
	Lifecycle LifecycleConfig
}

// ReactionPolicy returns the policy a daemon built from c reacts with:
// c.Policy, or AutoPolicy at DefaultResolveThreshold when it is nil.
func (c *Config) ReactionPolicy() Policy {
	if c.Policy != nil {
		return c.Policy
	}
	return AutoPolicy{Threshold: DefaultResolveThreshold}
}

// EpochRecord is the measurement of one daemon epoch — and, through sim.Run,
// of one simulated time slot.
type EpochRecord struct {
	Epoch    int
	Requests int

	// Admission telemetry.
	Arrived, Departed, Moved int
	// Deferred counts arrivals pushed to the next epoch by MaxBatch.
	Deferred int

	// Fault telemetry.
	FaultEvents int
	DownNodes   int
	// Rehomed counts requests moved off down nodes.
	Rehomed int

	AvgDelay        float64
	MaxDelay        float64
	Cost            float64
	Objective       float64
	ServedObjective float64
	Missing         int
	Unroutable      int
	CloudServed     int
	Degraded        int

	// Reaction telemetry.
	PlanTime   time.Duration // replay-mode planner time
	ReactTime  time.Duration // policy reaction time (repair and/or re-solve)
	Adds       int           // instances repair re-provisioned
	Evicts     int           // instances repair evicted
	RolledBack int           // repair candidates scored and reverted
	Resolved   bool          // a full re-solve produced this epoch's placement
	// Incremental marks epochs served by the delta evaluator alone — nothing
	// changed, so no policy ran.
	Incremental bool

	// Serverless lifecycle telemetry.
	ColdSteps    int // chain steps that paid the cold-start penalty
	ScaledToZero int // idle instances reclaimed at epoch end
	WarmSpares   int // idle instances kept by the warm-pool sizer
}

// RunResult aggregates a daemon run.
type RunResult struct {
	Records []EpochRecord
	// AllDelays collects every finite per-request latency in epoch order,
	// for distribution plots.
	AllDelays []float64
	// Final is the last non-empty epoch's evaluation, nil if none.
	Final *model.Evaluation
	// Placement is the daemon's live placement after the run.
	Placement model.Placement
}

// Daemon owns a live substrate and placement and ingests an event stream —
// request arrivals and departures, user moves, fault strikes and heals —
// reacting through the Policy layer.
// One DeltaEvaluator stays bound for as long as the masked substrate and the
// cold set stand: steady epochs are served by it alone, and a policy — which
// runs only when the admitted work or the substrate actually changed — scores
// its repair on it.
type Daemon struct {
	cfg    Config
	policy Policy

	mask *chaos.Mask
	// queue buckets the ingested events by the epoch that admits them, each
	// bucket in ingest order (seq), so an epoch's admission touches only what
	// is due.
	queue map[int][]queued
	seq   uint64
	// spare is a drained bucket's storage, for the next new bucket: a driver
	// that ingests event by event (the transport engine) would otherwise
	// grow every epoch's bucket from nothing.
	spare  []queued
	faults []Event // this epoch's strikes, staged by admit

	// active is the admitted workload in arrival order. Order is load-bearing:
	// RouteModeRandom derives each request's stream from its index.
	active  []msvc.Request
	workGen int // bumped on any active-set change

	placement     model.Placement
	havePlacement bool
	lastDegraded  int

	// The bound evaluator, what it is bound to, and the workload generation
	// it was last synced with. Its placement is its own: d.placement is a
	// copy, never an alias, so lifecycle reaps do not go behind its back.
	de          *model.DeltaEvaluator
	deGraph     *topology.Graph
	deWorkGen   int
	deColdEpoch uint64
	deSeed      int64

	// Serverless lifecycle state.
	cold *model.ColdStartModel
	life *lifecycle

	slot      int
	records   []EpochRecord
	allDelays []float64
	lastEval  *model.Evaluation

	// evalIn is the epoch's instance on the unmasked substrate, built once
	// per workload generation (evalInGen).
	evalIn    *model.Instance
	evalInGen int

	// What the last evaluated epoch derived from its evaluation — the
	// record's evaluation columns, the finite delays in request order and
	// the lifecycle scratch — and the key it derived them under. An epoch
	// under the same key, one whose evaluator republished that evaluation
	// (model.DeltaEvaluator.Eval), reuses all three.
	derivedKey derivedKey
	derived    EpochRecord
	delays     []float64
}

// derivedKey is everything an epoch's derived columns and lifecycle scratch
// read: the evaluation, the cold-set epoch and the workload generation.
type derivedKey struct {
	eval *model.Evaluation
	cold uint64
	work int
}

// NewDaemon validates cfg and builds an idle daemon with a pristine mask.
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.Graph == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("serve: nil graph or catalog")
	}
	if cfg.Planner == nil {
		return nil, fmt.Errorf("serve: nil planner")
	}
	if cfg.PlannerName == "" {
		cfg.PlannerName = "planner"
	}
	if cfg.Replan && cfg.MaxBatch > 0 {
		return nil, fmt.Errorf("serve: replay mode cannot batch admissions (MaxBatch=%d)", cfg.MaxBatch)
	}
	if cfg.Replan && cfg.Lifecycle.Enabled() {
		return nil, fmt.Errorf("serve: replay mode cannot run the instance lifecycle")
	}
	d := &Daemon{
		cfg:       cfg,
		policy:    cfg.ReactionPolicy(),
		mask:      chaos.NewMask(cfg.Graph),
		queue:     make(map[int][]queued),
		placement: model.NewPlacement(cfg.Catalog.Len(), cfg.Graph.N()),
	}
	if cfg.Lifecycle.Enabled() {
		d.life = newLifecycle(cfg.Lifecycle, cfg.Catalog.Len(), cfg.Graph.N())
	}
	if cfg.Lifecycle.ColdStartDelay > 0 {
		d.cold = model.NewColdStartModel(cfg.Catalog.Len(), cfg.Graph.N(), cfg.Lifecycle.ColdStartDelay)
	}
	return d, nil
}

// queued is an ingested event and its place in ingest order.
type queued struct {
	seq uint64
	ev  Event
}

// Ingest queues events for admission; an event with Slot <= the current epoch
// is admitted by the next Tick. Events admitted by one epoch are admitted in
// ingest order.
func (d *Daemon) Ingest(evs ...Event) {
	for _, ev := range evs {
		due := ev.Slot
		if due < d.slot {
			due = d.slot
		}
		b, ok := d.queue[due]
		if !ok {
			b, d.spare = d.spare, nil
		}
		d.queue[due] = append(b, queued{d.seq, ev})
		d.seq++
	}
}

// Epoch returns the next epoch Tick will serve.
func (d *Daemon) Epoch() int { return d.slot }

// Placement returns the daemon's live placement (not a copy).
func (d *Daemon) Placement() model.Placement { return d.placement }

// ActiveRequests returns the number of admitted, undeparted requests.
func (d *Daemon) ActiveRequests() int { return len(d.active) }

// Result snapshots the run so far.
func (d *Daemon) Result() *RunResult {
	return &RunResult{
		Records:   d.records,
		AllDelays: d.allDelays,
		Final:     d.lastEval,
		Placement: d.placement,
	}
}

// Run ticks the daemon through numEpochs epochs, returning the partial result
// alongside any mid-run error.
func (d *Daemon) Run(numEpochs int) (*RunResult, error) {
	for i := 0; i < numEpochs; i++ {
		if _, err := d.Tick(); err != nil {
			return d.Result(), err
		}
	}
	return d.Result(), nil
}

// RunScript ingests every event of a script and runs the daemon over the
// script's horizon (at least far enough to admit every event).
func (d *Daemon) RunScript(s *Script) (*RunResult, error) {
	epochs := s.Meta.NumSlots
	for _, ev := range s.Events {
		d.Ingest(ev)
		if ev.Slot+1 > epochs {
			epochs = ev.Slot + 1
		}
	}
	return d.Run(epochs - d.slot)
}

// Tick serves one epoch: admit queued events, react if anything changed,
// evaluate, and advance the serverless lifecycle.
//
// This is the only slot/epoch loop in the tree (sim.Run drives it in replay
// mode), and its order is causal and load-bearing — the golden digests in
// internal/sim and the results/*.csv diff in CI pin it: admission
// (pre-strike homes), replay-mode planning on the substrate as known, fault
// strikes (healings first, then new faults), request re-homing to the
// nearest up node, the policy's answer to the stale plan, then the exact
// evaluation of whatever serves on the masked substrate.
func (d *Daemon) Tick() (*EpochRecord, error) {
	// Epoch boundary: instances that survived to the boundary are warm;
	// anything deployed mid-epoch (repair adds, re-solve placements) stays
	// cold until the next boundary.
	if d.cold != nil {
		d.cold.SyncWarm(d.placement)
	}

	rec := EpochRecord{Epoch: d.slot}
	workChanged := d.admit(&rec)

	// Replay mode plans on the substrate as currently known — this epoch's
	// faults have not struck yet.
	if d.cfg.Replan && len(d.active) > 0 {
		planIn := d.instanceOn(d.mask.Graph())
		//socllint:ignore detrand wall-clock plan time is reported, never branched on
		t0 := time.Now()
		p, err := d.cfg.Planner(planIn)
		//socllint:ignore detrand wall-clock plan time is reported, never branched on
		rec.PlanTime = time.Since(t0)
		if err != nil {
			d.finish(&rec)
			return &rec, fmt.Errorf("serve: %s failed at epoch %d: %w", d.cfg.PlannerName, d.slot, err)
		}
		d.placement = p
		d.havePlacement = true
	}

	// Fault strikes land after planning.
	maskChanged := false
	for _, ev := range d.faults {
		pre := d.mask.Epoch()
		if err := d.mask.Apply(ev.Fault); err != nil {
			d.finish(&rec)
			return &rec, fmt.Errorf("serve: epoch %d: fault replay: %w", d.slot, err)
		}
		rec.FaultEvents++
		if d.mask.Epoch() != pre {
			maskChanged = true
		}
	}
	d.faults = d.faults[:0]
	rec.DownNodes = len(d.mask.DownNodes())

	// An empty epoch advances the fault timeline and the lifecycle only; no
	// re-homing happens.
	if len(d.active) == 0 {
		d.lastEval, d.derivedKey = nil, derivedKey{}
		d.lifecycleEnd(&rec, nil, false)
		d.finish(&rec)
		return &rec, nil
	}
	rec.Requests = len(d.active)

	if !d.mask.Pristine() {
		rec.Rehomed = rehomeRequests(d.mask, d.cfg.Graph, d.active)
		if rec.Rehomed > 0 {
			// Homes mutated in place: any bound evaluator is stale.
			workChanged = true
			d.workGen++
		}
	}

	evalIn := d.epochInstance()
	seed := d.cfg.RouteSeed + int64(d.slot)
	planned := d.placement
	if !d.cfg.Replan {
		// Before the policy, not after it: a re-bind this epoch's fault or
		// cold-set change forces is then paid once, by whichever of the
		// policy and the steady path scores the epoch.
		d.ensureDelta(seed)
	}

	if d.cfg.Replan || workChanged || maskChanged || !d.havePlacement {
		pol := d.policy
		if !d.havePlacement {
			// Initial solve: nothing to repair yet.
			pol = ResolvePolicy{}
		}
		ctx := &EpochContext{
			In:          evalIn,
			Mask:        d.mask,
			Planned:     planned,
			Mode:        d.cfg.Mode,
			Seed:        seed,
			Evaluator:   d.de,
			Resolve:     d.cfg.Planner,
			PlannerName: d.cfg.PlannerName,
		}
		out, err := pol.Serve(ctx)
		if err != nil {
			d.finish(&rec)
			return &rec, fmt.Errorf("serve: epoch %d: %w", d.slot, err)
		}
		d.placement = out.Placement
		d.havePlacement = true
		d.lastEval = out.Eval
		rec.ReactTime = out.ReactTime
		rec.Adds = len(out.Added)
		rec.Evicts = len(out.Evicted)
		rec.RolledBack = out.RolledBack
		rec.Resolved = out.Resolved
		if !d.mask.Pristine() {
			rec.Degraded = countDegraded(evalIn, planned, out.Eval, d.cfg.Mode, seed)
		}
		d.lastDegraded = rec.Degraded
	} else {
		// Steady epoch: nothing changed, so the bound delta evaluator carries
		// the previous epoch's routes forward (and absorbs lifecycle reclaims
		// as pure cost deltas).
		d.de.AdvanceTo(d.placement)
		d.lastEval = d.de.Eval()
		rec.Incremental = true
		rec.Degraded = d.lastDegraded
	}
	if invariant.Enabled {
		// Eq. 5/6 are a guarantee of repair only (checked inside repair.Run):
		// NonePolicy serves a damaged plan as-is and a planner may ignore the
		// budget. The Eq. 4 recount holds for whatever served.
		invariant.CheckDeadlineRecount(d.mask.Instance(evalIn), d.lastEval, "serve.Tick")
	}

	key := derivedKey{d.lastEval, d.coldEpoch(), d.workGen}
	reuse := key == d.derivedKey
	d.fillEvalColumns(&rec, evalIn, reuse)
	d.lifecycleEnd(&rec, d.lastEval, reuse)
	d.derivedKey = key
	if invariant.Enabled {
		// Only after observe/reap have reconciled the idle counters with the
		// (possibly policy-replaced) placement is the coherence rule total.
		d.checkLifecycleCoherence()
	}
	d.finish(&rec)
	return &rec, nil
}

// finish stamps the epoch into the record stream and advances the clock.
func (d *Daemon) finish(rec *EpochRecord) {
	d.records = append(d.records, *rec)
	d.slot++
}

// admit drains this epoch's bucket in ingest order and reports whether the
// active workload changed. Fault events are staged for the post-planning
// strike phase; arrivals beyond MaxBatch are deferred to the next epoch,
// where they keep their place in ingest order; an arrival whose ID is already
// active is dropped — departs, moves and the evaluator's carry-over all name
// a request by its ID, and a second copy would outlive its depart.
func (d *Daemon) admit(rec *EpochRecord) bool {
	due := d.queue[d.slot]
	if due == nil {
		return false
	}
	delete(d.queue, d.slot)
	changed := false
	arrivals := 0
	var deferred []queued
	for idx := range due {
		ev := &due[idx].ev
		switch ev.Kind {
		case EvFault:
			d.faults = append(d.faults, *ev)
		case EvArrive:
			if d.findActive(ev.ID) >= 0 {
				continue
			}
			if d.cfg.MaxBatch > 0 && arrivals >= d.cfg.MaxBatch {
				rec.Deferred++
				deferred = append(deferred, due[idx])
				continue
			}
			req := ev.Req
			req.ID = ev.ID
			req.Chain = append([]int(nil), ev.Req.Chain...)
			req.EdgeData = append([]float64(nil), ev.Req.EdgeData...)
			d.active = append(d.active, req)
			arrivals++
			rec.Arrived++
			changed = true
		case EvDepart:
			if i := d.findActive(ev.ID); i >= 0 {
				d.active = append(d.active[:i], d.active[i+1:]...)
				rec.Departed++
				changed = true
			}
		case EvMove:
			if i := d.findActive(ev.ID); i >= 0 && d.active[i].Home != ev.Node {
				d.active[i].Home = ev.Node
				rec.Moved++
				changed = true
			}
		}
	}
	if len(deferred) > 0 {
		d.queue[d.slot+1] = mergeBySeq(deferred, d.queue[d.slot+1])
	}
	d.spare = due[:0]
	if changed {
		d.workGen++
	}
	return changed
}

// mergeBySeq merges two buckets, each in ingest order, into one.
func mergeBySeq(a, b []queued) []queued {
	out := make([]queued, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].seq < b[0].seq {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func (d *Daemon) findActive(id int) int {
	for i := range d.active {
		if d.active[i].ID == id {
			return i
		}
	}
	return -1
}

// instanceOn builds this epoch's instance on the given substrate view. The
// cold-start model rides along (nil unless the lifecycle prices cold starts).
func (d *Daemon) instanceOn(g *topology.Graph) *model.Instance {
	return &model.Instance{
		Graph:     g,
		Workload:  &msvc.Workload{Catalog: d.cfg.Catalog, Requests: d.active},
		Lambda:    d.cfg.Lambda,
		Budget:    d.cfg.Budget,
		Cloud:     d.cfg.Cloud,
		ColdStart: d.cold,
	}
}

// epochInstance returns the epoch's instance on the unmasked substrate,
// rebuilt only when the active set changed since it was built.
func (d *Daemon) epochInstance() *model.Instance {
	if d.evalIn == nil || d.evalInGen != d.workGen {
		d.evalIn, d.evalInGen = d.instanceOn(d.cfg.Graph), d.workGen
	}
	return d.evalIn
}

// coldEpoch is the cold set's epoch, 0 when cold starts are not priced.
func (d *Daemon) coldEpoch() uint64 {
	if d.cold == nil {
		return 0
	}
	return d.cold.Epoch()
}

// ensureDelta leaves d.de bound to this epoch's masked substrate, cold set and
// active requests. What a cached route cannot outlive forces a new evaluator:
// another masked graph, another cold-set epoch, or — under random routing,
// whose streams derive from it — another seed. A changed workload does not:
// the evaluator is re-pointed at the edited list and keeps the route of every
// request that is still the same one.
func (d *Daemon) ensureDelta(seed int64) {
	g := d.mask.Graph()
	coldEpoch := d.coldEpoch()
	fresh := d.de == nil || d.deGraph != g || d.deColdEpoch != coldEpoch ||
		(d.cfg.Mode == model.RouteModeRandom && d.deSeed != seed)
	if fresh {
		d.de = model.NewDeltaEvaluator(d.instanceOn(g), d.placement.Clone(), d.cfg.Mode, seed)
		d.deGraph, d.deColdEpoch, d.deSeed = g, coldEpoch, seed
	}
	if fresh || d.deWorkGen != d.workGen {
		// A fresh evaluator is synced too: it takes its own copy of the
		// list, which admit and re-homing edit in place.
		d.de.SetRequests(d.active)
		d.deWorkGen = d.workGen
	}
}

// fillEvalColumns derives the epoch's statistics from its evaluation. The
// index-order accumulation is part of the bitwise contract (golden digests).
// With reuse it copies what the last evaluated epoch derived instead, its
// delays from the daemon's own copy: a caller may truncate allDelays.
func (d *Daemon) fillEvalColumns(rec *EpochRecord, evalIn *model.Instance, reuse bool) {
	if reuse {
		p := &d.derived
		rec.Cost, rec.Objective, rec.ServedObjective = p.Cost, p.Objective, p.ServedObjective
		rec.Missing, rec.Unroutable, rec.CloudServed = p.Missing, p.Unroutable, p.CloudServed
		rec.AvgDelay, rec.MaxDelay, rec.ColdSteps = p.AvgDelay, p.MaxDelay, p.ColdSteps
		d.allDelays = append(d.allDelays, d.delays...)
		return
	}
	ev := d.lastEval
	rec.Cost = ev.Cost
	rec.Objective = ev.Objective
	rec.Missing = ev.MissingInstances
	rec.Unroutable = ev.Unroutable
	rec.CloudServed = ev.CloudServed
	maxd := 0.0
	sum, n := 0.0, 0
	for _, dl := range ev.Latencies {
		if math.IsInf(dl, 1) {
			continue
		}
		sum += dl
		n++
		if dl > maxd {
			maxd = dl
		}
		d.allDelays = append(d.allDelays, dl)
	}
	d.delays = append(d.delays[:0], d.allDelays[len(d.allDelays)-n:]...)
	if n > 0 {
		rec.AvgDelay = sum / float64(n)
	}
	rec.MaxDelay = maxd
	rec.ServedObjective = evalIn.Objective(ev.Cost, sum)
	if d.cold != nil {
		for h, rt := range ev.Routes {
			if rt.Nodes == nil {
				continue
			}
			chain := d.active[h].Chain
			for t, k := range rt.Nodes {
				if d.cold.IsCold(chain[t], k) {
					rec.ColdSteps++
				}
			}
		}
	}
	d.derived = *rec
}

// lifecycleEnd folds the served epoch into the lifecycle state and scales
// idle instances to zero. Reclaimed instances are removed from the live
// placement now; they become cold at the next epoch boundary. With reuse
// the scratch still holds what the last evaluated epoch tallied from the
// same evaluation and workload, and is kept.
func (d *Daemon) lifecycleEnd(rec *EpochRecord, ev *model.Evaluation, reuse bool) {
	if d.life == nil || !d.havePlacement {
		return
	}
	if !reuse {
		d.tallyUse(ev)
	}
	d.life.observe(d.life.used, d.life.epochDemand, d.placement)
	removed, spares := d.life.reap(d.placement)
	rec.ScaledToZero = len(removed)
	rec.WarmSpares = spares
}

// tallyUse fills the lifecycle's per-epoch scratch from ev and the active
// set: the (svc, node) pairs that served a step, and each service's demand.
// The scratch lives on the lifecycle and is cleared in place.
func (d *Daemon) tallyUse(ev *model.Evaluation) {
	used, demand, seen := d.life.used, d.life.epochDemand, d.life.seen
	for i := range used {
		clear(used[i])
	}
	clear(demand)
	clear(seen)
	if ev != nil {
		for h, rt := range ev.Routes {
			if rt.Nodes == nil {
				continue
			}
			chain := d.active[h].Chain
			for t, k := range rt.Nodes {
				used[chain[t]][k] = true
			}
		}
	}
	for h := range d.active {
		for _, s := range d.active[h].Chain {
			if seen[s] != h+1 {
				seen[s] = h + 1
				demand[s]++
			}
		}
	}
}

// checkLifecycleCoherence asserts (under the soclinvariants tag) that the
// serverless state stays aligned with the live placement: idle counters only
// age deployed instances.
func (d *Daemon) checkLifecycleCoherence() {
	if d.life == nil {
		return
	}
	for i := range d.life.idle {
		for k := range d.life.idle[i] {
			invariant.Assertf(d.life.idle[i][k] == 0 || d.placement.Has(i, k),
				"serve: idle counter %d on undeployed instance (%d,%d)", d.life.idle[i][k], i, k)
		}
	}
}
