package serve

import (
	"fmt"
	"slices"
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
	// for distribution plots. An epoch that reused what the last evaluated
	// epoch derived shares that epoch's block.
	AllDelays DelayStream
	// Final is the last non-empty epoch's evaluation, nil if none or if the
	// last epoch failed, materialized when the result is taken.
	Final *model.Evaluation
	// Placement is the daemon's live placement after the run, read-only like
	// Daemon.Placement's.
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
	// ids holds the IDs of active's undeparted requests, so an arrival's
	// duplicate check costs O(1). Departures and moves still scan active:
	// a position index would be re-indexed by every compaction.
	ids map[int]struct{}
	// departs are the positions of active that departed while admit runs,
	// so that an epoch's departures compact in one pass at its end.
	departs []int
	// gone and moved are what admission and re-homing did to active since
	// the bound evaluator last saw it, as model.DeltaEvaluator.EditRequests
	// takes them: the departed indices of the list it holds, ascending, and
	// the moved survivors' indices in active. ensureDelta hands them over. An
	// epoch every request left returns before ensureDelta, and its departures
	// reach the evaluator with the next epoch's arrivals: nothing else can be
	// recorded against an empty list.
	gone, moved []int

	placement     model.Placement
	havePlacement bool
	lastDegraded  int

	// placeGen is the live placement's generation: every assignment of
	// another placement and every reap that removed an instance bump it — an
	// outcome that serves the planned placement itself does not — and it
	// starts at 1 so that the first tick syncs everything. coldGen and deGen
	// are the generations the cold set and the bound evaluator's placement
	// were last synced to (0: never, or the evaluator was handed to a policy,
	// which may edit its placement); lifeKey is what the lifecycle's idle
	// clocks were built from. A steady epoch, whose placement did not move,
	// skips all three syncs.
	placeGen, coldGen, deGen uint64
	lifeKey                  lifeKey

	// The bound evaluator and what it is bound to. Its placement is its own:
	// d.placement is a copy, never an alias, so lifecycle reaps do not go
	// behind its back. Its request list is its own too, edited in step with
	// active.
	de          *model.DeltaEvaluator
	deGraph     *topology.Graph
	deColdEpoch uint64
	deSeed      int64

	// Serverless lifecycle state, and the use counts the lifecycle and the
	// cold-step column read (nil when neither is on).
	cold *model.ColdStartModel
	life *lifecycle
	use  *useCounts

	slot    int
	records []EpochRecord
	delays  DelayStream
	// view reads the last served epoch's evaluation: the bound evaluator, or
	// what the policy scored on (nil when the epoch served nothing).
	view model.EvalView

	// evalIn is the epoch's instance on the unmasked substrate (see
	// epochInstance).
	evalIn    *model.Instance
	evalInGen int

	// What the last evaluated epoch derived from its evaluation — the
	// record's evaluation columns, the block of finite delays in request
	// order and the use counts — and the key it derived them under. An epoch
	// under the same key, one whose evaluator has not moved since
	// (model.DeltaEvaluator.Stamp), reuses all three.
	derivedKey derivedKey
	derived    EpochRecord
	block      []float64
}

// lifeKey is what the idle clocks derive from: the placement generation and
// the use counts' used-set generation.
type lifeKey struct{ place, used uint64 }

// derivedKey is everything an epoch's derived columns and use counts read:
// the view of the evaluation and, for an evaluator, its stamp, the cold-set
// epoch and the workload generation.
type derivedKey struct {
	view  model.EvalView
	stamp model.EvalStamp
	cold  uint64
	work  int
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
		ids:       make(map[int]struct{}),
		placement: model.NewPlacement(cfg.Catalog.Len(), cfg.Graph.N()),
		placeGen:  1,
	}
	if cfg.Lifecycle.Enabled() {
		d.life = newLifecycle(cfg.Lifecycle, cfg.Catalog.Len(), cfg.Graph.N())
	}
	if cfg.Lifecycle.ColdStartDelay > 0 {
		d.cold = model.NewColdStartModel(cfg.Catalog.Len(), cfg.Graph.N(), cfg.Lifecycle.ColdStartDelay)
	}
	if d.life != nil || d.cold != nil {
		d.use = newUseCounts(cfg.Catalog.Len(), cfg.Graph.N())
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

// Placement returns the daemon's live placement (not a copy). It is
// read-only: the daemon syncs the cold set, its bound evaluator and the
// lifecycle's idle clocks only when it moves the placement itself, so a
// caller that writes it desynchronises all three (armed builds panic at the
// next epoch).
func (d *Daemon) Placement() model.Placement { return d.placement }

// ActiveRequests returns the number of admitted, undeparted requests.
func (d *Daemon) ActiveRequests() int { return len(d.active) }

// Result snapshots the run so far.
func (d *Daemon) Result() *RunResult {
	r := &RunResult{
		Records:   d.records,
		AllDelays: d.delays,
		Placement: d.placement,
	}
	if d.view != nil {
		r.Final = d.view.Eval()
	}
	return r
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
	// cold until the next boundary. SyncWarm reads nothing but the
	// placement, so it runs only when the placement moved since it last ran.
	if d.cold != nil && d.coldGen != d.placeGen {
		d.cold.SyncWarm(d.placement)
		d.coldGen = d.placeGen
	}
	if invariant.Enabled {
		d.checkColdSet()
	}

	rec := EpochRecord{Epoch: d.slot}
	workChanged := d.admit(&rec)

	// Replay mode plans on the substrate as currently known — this epoch's
	// faults have not struck yet.
	if d.cfg.Replan && len(d.active) > 0 {
		planIn := d.instanceOn(d.mask.Graph(), d.activeWorkload())
		//socllint:ignore detrand wall-clock plan time is reported, never branched on
		t0 := time.Now()
		p, err := d.cfg.Planner(planIn)
		//socllint:ignore detrand wall-clock plan time is reported, never branched on
		rec.PlanTime = time.Since(t0)
		if err != nil {
			return d.fail(&rec, fmt.Errorf("serve: %s failed at epoch %d: %w", d.cfg.PlannerName, d.slot, err))
		}
		d.setPlacement(p)
	}

	// Fault strikes land after planning.
	maskChanged := false
	for _, ev := range d.faults {
		pre := d.mask.Epoch()
		if err := d.mask.Apply(ev.Fault); err != nil {
			return d.fail(&rec, fmt.Errorf("serve: epoch %d: fault replay: %w", d.slot, err))
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
		d.view, d.derivedKey = nil, derivedKey{}
		d.tally(nil)
		d.lifecycleEnd(&rec)
		d.finish(&rec)
		return &rec, nil
	}
	rec.Requests = len(d.active)

	if !d.mask.Pristine() {
		n := len(d.moved)
		d.moved = rehomeRequests(d.mask, d.cfg.Graph, d.active, d.moved)
		if rec.Rehomed = len(d.moved) - n; rec.Rehomed > 0 {
			workChanged = true
			d.workGen++
		}
	}

	seed := d.cfg.RouteSeed + int64(d.slot)
	planned := d.placement
	if !d.cfg.Replan {
		// Before the policy, not after it: a re-bind this epoch's fault or
		// cold-set change forces is then paid once, by whichever of the
		// policy and the steady path scores the epoch.
		d.ensureDelta(seed)
	} else {
		d.gone, d.moved = d.gone[:0], d.moved[:0] // no evaluator to hand them to
	}
	evalIn := d.epochInstance()

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
		d.deGen = 0 // a repair edits the evaluator's placement
		out, err := pol.Serve(ctx)
		if err != nil {
			return d.fail(&rec, fmt.Errorf("serve: epoch %d: %w", d.slot, err))
		}
		if model.SamePlacement(out.Placement, planned) {
			// The planned placement did not move (repair.Result.Placement):
			// its generation stands, and the evaluator the repair left there
			// is on it too.
			if de, ok := out.View.(*model.DeltaEvaluator); ok && de == d.de {
				d.deGen = d.placeGen
			}
		} else {
			d.setPlacement(out.Placement)
		}
		d.view = out.View
		rec.ReactTime = out.ReactTime
		rec.Adds = len(out.Added)
		rec.Evicts = len(out.Evicted)
		rec.RolledBack = out.RolledBack
		rec.Resolved = out.Resolved
		if !d.mask.Pristine() {
			d.view.Summary() // brings an evaluator's routes up for the reads
			rec.Degraded = countDegraded(evalIn, planned, d.view, d.cfg.Mode, seed)
		}
		d.lastDegraded = rec.Degraded
	} else {
		// Steady epoch: nothing changed, so the bound delta evaluator carries
		// the previous epoch's routes forward (and absorbs lifecycle reclaims
		// as pure cost deltas). AdvanceTo diffs every (service, node) cell,
		// so it runs only when the placement moved since it last did.
		if d.deGen != d.placeGen {
			d.de.AdvanceTo(d.placement)
			d.deGen = d.placeGen
		}
		if invariant.Enabled {
			d.checkEvaluatorPlacement()
		}
		d.view = d.de
		rec.Incremental = true
		rec.Degraded = d.lastDegraded
	}
	if invariant.Enabled {
		d.checkView(evalIn)
	}

	key := derivedKey{view: d.view, cold: d.coldEpoch(), work: d.workGen}
	if de, ok := d.view.(*model.DeltaEvaluator); ok {
		key.stamp = de.Stamp()
	}
	if key == d.derivedKey {
		d.reuseEvalColumns(&rec)
	} else {
		s := d.view.Summary()
		d.tally(d.view)
		d.fillEvalColumns(&rec, evalIn, s)
	}
	d.lifecycleEnd(&rec)
	d.derivedKey = key
	if invariant.Enabled {
		// Only after observe/reap have reconciled the idle counters with the
		// (possibly policy-replaced) placement is the coherence rule total.
		d.checkLifecycleCoherence()
	}
	d.finish(&rec)
	return &rec, nil
}

// setPlacement adopts p as the live placement and bumps its generation.
func (d *Daemon) setPlacement(p model.Placement) {
	d.placement = p
	d.havePlacement = true
	d.placeGen++
}

// fail ends an epoch that could not be served with err. What it admitted or
// handed the evaluator may already have moved what the last served epoch's
// view reads, so the run keeps no final evaluation.
func (d *Daemon) fail(rec *EpochRecord, err error) (*EpochRecord, error) {
	d.view = nil
	d.finish(rec)
	return rec, err
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
// active is dropped — departs and moves name a request by its ID, and a
// second copy would outlive its depart. Departures are marked as they come
// and compacted in one pass at the end, and the epoch's edits are recorded
// for the evaluator.
func (d *Daemon) admit(rec *EpochRecord) bool {
	due := d.queue[d.slot]
	if due == nil {
		return false
	}
	delete(d.queue, d.slot)
	held := len(d.active)
	changed := false
	arrivals := 0
	var deferred []queued
	for idx := range due {
		ev := &due[idx].ev
		switch ev.Kind {
		case EvFault:
			d.faults = append(d.faults, *ev)
		case EvArrive:
			if _, dup := d.ids[ev.ID]; dup {
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
			d.ids[req.ID] = struct{}{}
			if d.use != nil {
				d.use.arrive(req.Chain)
			}
			arrivals++
			rec.Arrived++
			changed = true
		case EvDepart:
			if i := d.findActive(ev.ID); i >= 0 {
				// Freed at once: a later arrival in this epoch may reuse
				// the ID, as it could when the scan skipped departed ones.
				delete(d.ids, ev.ID)
				d.departs = append(d.departs, i)
				rec.Departed++
				changed = true
			}
		case EvMove:
			if i := d.findActive(ev.ID); i >= 0 && d.active[i].Home != ev.Node {
				d.active[i].Home = ev.Node
				if i < held { // an arrival is new to the evaluator anyway
					d.moved = append(d.moved, i)
				}
				rec.Moved++
				changed = true
			}
		}
	}
	if len(d.departs) > 0 {
		d.compactActive(held)
	}
	if invariant.Enabled {
		d.checkActiveIDs()
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

// compactActive removes the positions admit marked departed in one pass —
// from active and from the counted routes, taking each out of the use
// counts — records those below held, the length of the list the evaluator
// holds, as its departures, and re-indexes the moves recorded against that
// list.
func (d *Daemon) compactActive(held int) {
	slices.Sort(d.departs)
	moved := d.moved[:0]
	for _, i := range d.moved {
		if !d.departed(i) {
			moved = append(moved, i)
		}
	}
	for _, r := range d.departs {
		if d.use != nil {
			d.use.depart(r, d.active[r].Chain)
		}
		if r < held {
			d.gone = append(d.gone, r)
		}
	}
	d.active = model.RemoveSorted(d.active, d.departs)
	if d.use != nil {
		d.use.routes = model.RemoveSorted(d.use.routes, d.departs)
	}
	for j, i := range moved {
		shift, _ := slices.BinarySearch(d.gone, i)
		moved[j] = i - shift
	}
	d.moved, d.departs = moved, d.departs[:0]
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

// findActive returns the position of the active request with the given ID,
// -1 if there is none. A request admit marked departed is not active.
func (d *Daemon) findActive(id int) int {
	for i := range d.active {
		if d.active[i].ID == id && !d.departed(i) {
			return i
		}
	}
	return -1
}

// checkActiveIDs asserts (under the soclinvariants tag) that the ID set
// holds exactly the active requests' IDs.
func (d *Daemon) checkActiveIDs() {
	invariant.Assertf(len(d.ids) == len(d.active),
		"serve: epoch %d holds %d active IDs for %d active requests", d.slot, len(d.ids), len(d.active))
	for i := range d.active {
		_, ok := d.ids[d.active[i].ID]
		invariant.Assertf(ok, "serve: epoch %d: active request %d is missing from the ID set", d.slot, d.active[i].ID)
	}
}

// departed reports whether admit marked active position i departed.
func (d *Daemon) departed(i int) bool { return slices.Contains(d.departs, i) }

// activeWorkload is the active list as a workload. It aliases active, which
// the next epoch edits in place: it is for this epoch only.
func (d *Daemon) activeWorkload() *msvc.Workload {
	return &msvc.Workload{Catalog: d.cfg.Catalog, Requests: d.active}
}

// instanceOn builds this epoch's instance on the given substrate view and
// workload. The cold-start model rides along (nil unless the lifecycle
// prices cold starts).
func (d *Daemon) instanceOn(g *topology.Graph, w *msvc.Workload) *model.Instance {
	return &model.Instance{
		Graph:     g,
		Workload:  w,
		Lambda:    d.cfg.Lambda,
		Budget:    d.cfg.Budget,
		Cloud:     d.cfg.Cloud,
		ColdStart: d.cold,
	}
}

// epochInstance returns the epoch's instance on the unmasked substrate. In
// serve mode it carries the bound evaluator's own workload, which the
// evaluator edits in step with active — so a repair's BoundTo check is a
// pointer comparison — and is rebuilt only with the evaluator. In replay
// mode it carries active and is rebuilt when the active set changed.
func (d *Daemon) epochInstance() *model.Instance {
	if d.de != nil {
		if d.evalIn == nil || d.evalIn.Workload != d.de.Workload() {
			d.evalIn = d.instanceOn(d.cfg.Graph, d.de.Workload())
		}
		return d.evalIn
	}
	if d.evalIn == nil || d.evalInGen != d.workGen {
		d.evalIn, d.evalInGen = d.instanceOn(d.cfg.Graph, d.activeWorkload()), d.workGen
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
// the evaluator is handed the epoch's recorded edits and keeps the route of
// every request that stayed where it was.
func (d *Daemon) ensureDelta(seed int64) {
	g := d.mask.Graph()
	coldEpoch := d.coldEpoch()
	if d.de == nil || d.deGraph != g || d.deColdEpoch != coldEpoch ||
		(d.cfg.Mode == model.RouteModeRandom && d.deSeed != seed) {
		// A new evaluator binds over a private copy of active, which it
		// then edits in place.
		w := &msvc.Workload{Catalog: d.cfg.Catalog, Requests: slices.Clone(d.active)}
		d.de = model.NewDeltaEvaluator(d.instanceOn(g, w), d.placement.Clone(), d.cfg.Mode, seed)
		d.deGraph, d.deColdEpoch, d.deSeed = g, coldEpoch, seed
		d.deGen = d.placeGen
	} else {
		d.de.EditRequests(d.active, d.gone, d.moved)
	}
	d.gone, d.moved = d.gone[:0], d.moved[:0]
}

// fillEvalColumns derives the epoch's statistics from its evaluation's
// summary s and view. The index-order accumulation is part of the bitwise
// contract (golden digests): the served sum is the summary's. An evaluated
// epoch writes its finite delays once, into a block sized exactly to them,
// and appends that block to the delay stream.
func (d *Daemon) fillEvalColumns(rec *EpochRecord, evalIn *model.Instance, s model.EvalSummary) {
	rec.Cost = s.Cost
	rec.Objective = s.Objective
	rec.Missing = s.MissingInstances
	rec.Unroutable = s.Unroutable
	rec.CloudServed = s.CloudServed
	block := d.view.AppendFinite(make([]float64, 0, s.Finite))
	maxd := 0.0
	for _, dl := range block {
		if dl > maxd {
			maxd = dl
		}
	}
	d.block = block
	d.delays.add(block)
	if s.Finite > 0 {
		rec.AvgDelay = s.ServedLatencySum / float64(s.Finite)
	}
	rec.MaxDelay = maxd
	rec.ServedObjective = evalIn.Objective(s.Cost, s.ServedLatencySum)
	if d.cold != nil {
		rec.ColdSteps = d.use.coldSteps(d.cold)
	}
	d.derived = *rec
}

// reuseEvalColumns copies the columns the last evaluated epoch derived and
// appends a reference to its block: blocks are never written again, so
// sharing one costs a slice header, not a copy.
func (d *Daemon) reuseEvalColumns(rec *EpochRecord) {
	p := &d.derived
	rec.Cost, rec.Objective, rec.ServedObjective = p.Cost, p.Objective, p.ServedObjective
	rec.Missing, rec.Unroutable, rec.CloudServed = p.Missing, p.Unroutable, p.CloudServed
	rec.AvgDelay, rec.MaxDelay, rec.ColdSteps = p.AvgDelay, p.MaxDelay, p.ColdSteps
	d.delays.add(d.block)
}

// lifecycleEnd folds the served epoch — the use counts as the epoch's tally
// left them — into the lifecycle state and scales idle instances to zero.
// The idle clocks are rebuilt only when the placement or the used set moved
// since they were built. Reclaimed instances are removed from the live
// placement now; they become cold at the next epoch boundary.
func (d *Daemon) lifecycleEnd(rec *EpochRecord) {
	if d.life == nil || !d.havePlacement {
		return
	}
	key := lifeKey{d.placeGen, d.use.usedGen}
	d.life.observe(d.use.steps, d.use.demand, d.placement, key != d.lifeKey)
	removed, spares := d.life.reap(d.placement)
	if len(removed) > 0 {
		// reap dropped its removals from the idle clocks, which so stay
		// true of the placement it left.
		d.placeGen++
		key.place = d.placeGen
	}
	d.lifeKey = key
	rec.ScaledToZero = len(removed)
	rec.WarmSpares = spares
}

// tally brings the use counts to the epoch's evaluation, read through v (nil:
// nothing served); every epoch that does not reuse what the last one derived
// runs it. Only the requests whose route changed are recounted.
func (d *Daemon) tally(v model.EvalView) {
	if d.use == nil {
		return
	}
	d.use.tally(v, d.active)
	if invariant.Enabled {
		d.checkUseCounts(v)
	}
}

// checkUseCounts asserts (under the soclinvariants tag) that the use counts
// — and with them the lifecycle's used instances and demand and the
// record's cold steps — equal a recount from scratch.
func (d *Daemon) checkUseCounts(v model.EvalView) {
	ref := newUseCounts(d.cfg.Catalog.Len(), d.cfg.Graph.N())
	ref.recount(v, d.active)
	for s := range ref.steps {
		invariant.Assertf(slices.Equal(ref.steps[s], d.use.steps[s]),
			"serve: epoch %d step counts of service %d are %v, a recount gives %v", d.slot, s, d.use.steps[s], ref.steps[s])
	}
	invariant.Assertf(slices.Equal(ref.demand, d.use.demand),
		"serve: epoch %d demand counts are %v, a recount gives %v", d.slot, d.use.demand, ref.demand)
	if d.cold != nil {
		got, want := d.use.coldSteps(d.cold), ref.coldSteps(d.cold)
		invariant.Assertf(got == want, "serve: epoch %d counts %d cold steps, a recount %d", d.slot, got, want)
	}
}

// checkView asserts (under the soclinvariants tag) that every read of the
// epoch's view equals, bit for bit, the evaluation it materializes — for the
// bound evaluator a stale summary or route reads differently — and recounts
// Eq. 4 on that evaluation. Eq. 5/6 are a guarantee of repair only (checked
// inside repair.Run): NonePolicy serves a damaged plan as-is and a planner
// may ignore the budget. The Eq. 4 recount holds for whatever served.
func (d *Daemon) checkView(evalIn *model.Instance) {
	d.view.Summary() // before Eval, which would cache it
	ev := d.view.Eval()
	if err := model.DiffView(d.view, ev); err != nil {
		panic(fmt.Sprintf("serve: epoch %d reads its evaluation wrong: %v", d.slot, err))
	}
	invariant.CheckDeadlineRecount(d.mask.Instance(evalIn), ev, "serve.Tick")
}

// checkLifecycleCoherence asserts (under the soclinvariants tag) that the
// idle clocks are what the dense rules derive from the live placement after
// an epoch's reap: exactly the deployed instances with no counted step,
// ascending, each idle for at least one epoch, and each service's deployed
// count. A missed placement-generation bump leaves them behind and fails it.
func (d *Daemon) checkLifecycleCoherence() {
	if d.life == nil {
		return
	}
	l, j := d.life, 0
	for i := range d.placement.X {
		invariant.Assertf(l.count[i] == d.placement.Count(i),
			"serve: epoch %d: the lifecycle counts %d instances of service %d, the placement %d", d.slot, l.count[i], i, d.placement.Count(i))
		for k, on := range d.placement.X[i] {
			if !on || d.use.steps[i][k] > 0 {
				continue
			}
			invariant.Assertf(j < len(l.idle) && l.idle[j].svc == i && l.idle[j].node == k,
				"serve: epoch %d: deployed, unused instance (%d,%d) has no idle clock in order", d.slot, i, k)
			invariant.Assertf(l.now-l.idle[j].since >= 1,
				"serve: epoch %d: idle clock of (%d,%d) reads %d epochs", d.slot, i, k, l.now-l.idle[j].since)
			j++
		}
	}
	invariant.Assertf(j == len(l.idle), "serve: epoch %d holds %d idle clocks for %d deployed, unused instances", d.slot, len(l.idle), j)
}

// checkColdSet asserts (under the soclinvariants tag) that the cold set is
// what SyncWarm derives from the live placement at the epoch boundary.
func (d *Daemon) checkColdSet() {
	if d.cold == nil {
		return
	}
	for i := range d.placement.X {
		for k, on := range d.placement.X[i] {
			invariant.Assertf(d.cold.IsCold(i, k) == !on,
				"serve: epoch %d: instance (%d,%d) deployed=%v is cold=%v at the boundary", d.slot, i, k, on, d.cold.IsCold(i, k))
		}
	}
}

// checkEvaluatorPlacement asserts (under the soclinvariants tag) that the
// bound evaluator serves a steady epoch on the live placement.
func (d *Daemon) checkEvaluatorPlacement() {
	p := d.de.Placement()
	for i := range d.placement.X {
		invariant.Assertf(slices.Equal(p.X[i], d.placement.X[i]),
			"serve: epoch %d: the evaluator's placement of service %d is %v, the live one %v", d.slot, i, p.X[i], d.placement.X[i])
	}
}
