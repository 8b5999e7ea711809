package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// daemonScenario is one generated script and the daemon wiring that serves it.
type daemonScenario struct {
	// config returns the wiring of a fresh daemon; every pass gets a new
	// planner because the online solver keeps warm state between epochs.
	config func() serve.Config
	epochs [][]serve.Event
	// steady, when set, is the active request set the script ends with, for
	// the delta-evaluator probe.
	steady []msvc.Request
}

// daemonRunner drives in-process serve.Daemons over generated scripts: a
// pass plays every scenario once, each on a fresh daemon, and pools their
// epochs.
type daemonRunner struct {
	name      string
	scenarios []daemonScenario
	last      []*serve.Daemon // the last pass's daemons, one per scenario
}

// scenarioSeed derives the seed of a workload's i-th scenario. A workload
// draws several scenarios from one seed so that its numbers describe the
// workload's shape rather than one substrate's luck: a single 24-node graph
// or one fault schedule moves a latency by tens of percent from seed to seed.
func scenarioSeed(seed int64, workload string, i int) int64 {
	return stats.SplitSeed(seed, fmt.Sprintf("%s/%d", workload, i))
}

// byEpoch groups a script's events by the epoch they are due. Handing the
// daemon one epoch's events at a time is how transport.Engine feeds it; a
// driver that ingests the whole script before the first Tick makes the
// daemon's admission rescan the entire queue every epoch (9× the time).
func byEpoch(s *serve.Script) [][]serve.Event {
	n := s.Meta.NumSlots
	for i := range s.Events {
		if s.Events[i].Slot+1 > n {
			n = s.Events[i].Slot + 1
		}
	}
	out := make([][]serve.Event, n)
	for _, ev := range s.Events {
		out[ev.Slot] = append(out[ev.Slot], ev)
	}
	return out
}

// tracedPolicy times the daemon's reaction policy through the serve.Policy
// interface the daemon already takes.
type tracedPolicy struct {
	inner serve.Policy
	tr    *tracer
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Serve(ctx *serve.EpochContext) (serve.Outcome, error) {
	id := p.tr.begin("serve.policy")
	defer p.tr.end(id)
	return p.inner.Serve(ctx)
}

// withSpans wraps the hooks a serve.Config already offers — the planner, the
// policy, and the repair seam — in timing spans. The wrapped calls are the
// ones the daemon makes by default: AutoPolicy at the default threshold (no
// workload configures another) over a standalone repair.Run.
func withSpans(sc serve.Config, tr *tracer) serve.Config {
	if tr == nil {
		return sc
	}
	plan := sc.Planner
	sc.Planner = func(in *model.Instance) (model.Placement, error) {
		id := tr.begin("core.planner")
		defer tr.end(id)
		return plan(in)
	}
	sc.Policy = tracedPolicy{tr: tr, inner: serve.AutoPolicy{
		Threshold: serve.DefaultResolveThreshold,
		Repair: serve.RepairPolicy{Run: func(in *model.Instance, m *chaos.Mask, p model.Placement, cfg repair.Config) (*repair.Result, error) {
			id := tr.begin("repair.run")
			defer tr.end(id)
			return repair.Run(in, m, p, cfg), nil
		}},
	}}
	return sc
}

// runDaemon plays the epochs through a fresh daemon, one Ingest+Tick per
// epoch, and returns the pass with ops = µs per epoch. tickUS, filled only
// when tracing, is the Tick share of each epoch.
func runDaemon(sc serve.Config, epochs [][]serve.Event, tr *tracer) (p *pass, d *serve.Daemon, tickUS []float64, err error) {
	d, err = serve.NewDaemon(withSpans(sc, tr))
	if err != nil {
		return nil, nil, nil, err
	}
	p = &pass{ops: make([]float64, 0, len(epochs))}
	if tr != nil {
		tickUS = make([]float64, 0, len(epochs))
	}
	start := time.Now()
	for _, evs := range epochs {
		tr.nextOp()
		t0 := time.Now()
		id := tr.begin("serve.ingest")
		d.Ingest(evs...)
		tr.end(id)
		id = tr.begin("serve.tick")
		_, terr := d.Tick()
		tr.end(id)
		p.ops = append(p.ops, float64(time.Since(t0))/1e3)
		if tr != nil {
			tickUS = append(tickUS, float64(tr.spans[id].End-tr.spans[id].Start)/1e3)
		}
		if terr != nil {
			p.opErrors++
			err = terr
			break
		}
		p.events += len(evs)
	}
	p.wall = time.Since(start)
	recordOutputs(p, d.Result().Records)
	return p, d, tickUS, err
}

// recordOutputs derives the deterministic outputs from the daemon's records:
// the mean served objective over non-empty epochs, and unserved requests
// (missing an instance, or unroutable) of all requests served.
func recordOutputs(p *pass, recs []serve.EpochRecord) {
	objSum, nonEmpty := 0.0, 0
	for i := range recs {
		rec := &recs[i]
		if rec.Requests == 0 {
			continue
		}
		nonEmpty++
		objSum += rec.ServedObjective
		p.attempted += rec.Requests
		p.failed += rec.Missing + rec.Unroutable
	}
	if nonEmpty > 0 {
		p.objective = objSum / float64(nonEmpty)
	}
}

func (r *daemonRunner) pass(tr *tracer) (*pass, error) {
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	total := &pass{}
	var recs []serve.EpochRecord
	var tickUS []float64
	r.last = r.last[:0]
	for i := range r.scenarios {
		sc := &r.scenarios[i]
		p, d, ticks, err := runDaemon(sc.config(), sc.epochs, tr)
		if d != nil {
			r.last = append(r.last, d)
			recs = append(recs, d.Result().Records...)
		}
		if p != nil {
			total.merge(p)
		}
		tickUS = append(tickUS, ticks...)
		if err != nil && p == nil {
			return nil, err
		}
		// A daemon that refused an epoch leaves its partial pass standing,
		// with the error counted, so the run reports it instead of dying.
	}
	total.objective /= float64(len(r.scenarios))
	if tr != nil {
		runtime.ReadMemStats(&after)
		total.layers = daemonLayers(selfTimes(tr.spans), recs, tickUS)
		ticks := float64(len(recs))
		total.layers["serve.allocs_per_tick"] = float64(after.Mallocs-before.Mallocs) / ticks
		total.layers["serve.bytes_per_tick"] = float64(after.TotalAlloc-before.TotalAlloc) / ticks
	}
	return total, nil
}

// daemonLayers turns one traced daemon run into layer numbers. tickUS[e] is
// the Tick time of epoch e (nil when the ticks ran inside a transport.Engine
// and were not timed one by one).
func daemonLayers(lt map[string]layerTime, recs []serve.EpochRecord, tickUS []float64) map[string]float64 {
	out := map[string]float64{
		"serve.ingest_us":    lt["serve.ingest"].meanUS(),
		"serve.policy_us":    lt["serve.policy"].meanUS(),
		"serve.tick_self_us": lt["serve.tick"].selfMeanUS(),
		"core.planner_ms":    lt["core.planner"].meanMS(),
		"core.planner_calls": float64(lt["core.planner"].Calls),
		"repair.run_ms":      lt["repair.run"].meanMS(),
		"repair.calls":       float64(lt["repair.run"].Calls),
	}
	var react, steady []float64
	var incr, resolved, cold, zero, spares, faults, adds, evicts, rolled float64
	for e := range recs {
		rec := &recs[e]
		if e < len(tickUS) {
			if rec.Incremental {
				steady = append(steady, tickUS[e])
			} else {
				react = append(react, tickUS[e])
			}
		}
		if rec.Incremental {
			incr++
		}
		if rec.Resolved {
			resolved++
		}
		cold += float64(rec.ColdSteps)
		zero += float64(rec.ScaledToZero)
		spares += float64(rec.WarmSpares)
		faults += float64(rec.FaultEvents)
		adds += float64(rec.Adds)
		evicts += float64(rec.Evicts)
		rolled += float64(rec.RolledBack)
	}
	if tickUS != nil {
		out["serve.tick_react_us"] = stats.Mean(react)
		out["serve.tick_steady_us"] = stats.Mean(steady)
	}
	if len(recs) > 0 {
		out["serve.incremental_ratio"] = incr / float64(len(recs))
	}
	out["serve.resolved_epochs"] = resolved
	out["serve.cold_steps"] = cold
	out["serve.scaled_to_zero"] = zero
	out["serve.warm_spares"] = spares
	out["chaos.fault_events"] = faults
	out["repair.adds"] = adds
	out["repair.evicts"] = evicts
	out["repair.useful_ratio"] = 0
	if adds+rolled > 0 {
		out["repair.useful_ratio"] = adds / (adds + rolled)
	}
	return out
}

// probe times the steady epoch's core on its own: a DeltaEvaluator bound to
// a scenario's steady active set and its daemon's final placement, advanced
// to that placement and evaluated — what Tick does when nothing changed.
func (r *daemonRunner) probe() (map[string]float64, error) {
	var perScenario []float64
	for i := range r.scenarios {
		if r.scenarios[i].steady == nil || i >= len(r.last) {
			continue
		}
		sc := r.scenarios[i].config()
		in := &model.Instance{Graph: sc.Graph, Lambda: sc.Lambda, Budget: sc.Budget,
			Workload: &msvc.Workload{Catalog: sc.Catalog, Requests: r.scenarios[i].steady}}
		live := r.last[i].Placement()
		de := model.NewDeltaEvaluator(in, live.Clone(), sc.Mode, sc.RouteSeed)
		de.Eval() // bind and route once, as the daemon's first steady epoch does
		const reps = 1000
		var runs []float64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			for n := 0; n < reps; n++ {
				de.AdvanceTo(live)
				de.Eval()
			}
			runs = append(runs, float64(time.Since(t0))/1e3/reps)
		}
		perScenario = append(perScenario, median(runs))
	}
	if perScenario == nil {
		return nil, nil
	}
	return map[string]float64{"model.delta_advance_eval_us": stats.Mean(perScenario)}, nil
}

func (r *daemonRunner) check() error {
	if len(r.last) != len(r.scenarios) {
		return fmt.Errorf("%s: %d of %d daemons ran", r.name, len(r.last), len(r.scenarios))
	}
	for i, d := range r.last {
		recs := d.Result().Records
		if len(recs) != len(r.scenarios[i].epochs) {
			return fmt.Errorf("%s: scenario %d: daemon served %d of %d epochs", r.name, i, len(recs), len(r.scenarios[i].epochs))
		}
		for e := range recs {
			if recs[e].Epoch != e {
				return fmt.Errorf("%s: scenario %d: record %d is epoch %d", r.name, i, e, recs[e].Epoch)
			}
		}
	}
	return nil
}

func (r *daemonRunner) close() error { return nil }

// ---- serve_churn: every epoch changes ----

const (
	churnScenarios = 16
	churnNodes     = 24
	churnRadius    = 0.4
	churnUsers     = 60
	churnEpochs    = 150 // per scenario: 2400 epochs a pass
	churnNodeFail  = 0.15
)

// simScenario builds the ext_serve recipe at a given size: a random geometric
// substrate, the eShop catalog, the simulator's default trace configuration
// (requests live one slot) and, with nodeFail > 0, a seeded fault schedule
// that never takes more than half the nodes down. The script's meta carries
// the scenario's seed, which is how a wire session names its scenario.
func simScenario(nodes int, radius float64, users, epochs int, nodeFail, linkFail float64, seed int64, tr *tracer) (sim.Config, *serve.Script, error) {
	id := tr.begin("topology.build")
	g := topology.RandomGeometric(nodes, radius, topology.DefaultGenConfig(), seed)
	tr.end(id)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := sim.DefaultConfig(g, cat, users, seed)
	cfg.DurationMinutes = float64(epochs) * cfg.SlotMinutes
	if nodeFail > 0 {
		scfg := chaos.DefaultScheduleConfig()
		scfg.NodeFailProb = nodeFail
		if linkFail > 0 {
			scfg.LinkFailProb = linkFail
		}
		scfg.MinNodesUp = nodes / 2
		cfg.Faults = chaos.Generate(g, epochs, scfg, seed)
		cfg.Policy = sim.PolicyRepair
	}
	id = tr.begin("sim.event_stream")
	script, err := sim.EventStream(cfg)
	tr.end(id)
	if err != nil {
		return cfg, nil, err
	}
	script.Meta.Radius, script.Meta.TopoSeed, script.Meta.CatSeed = radius, seed, seed
	return cfg, script, nil
}

// serveMode is the daemon wiring ext_serve's daemon-serve row uses: the
// simulator's replay configuration switched to serve mode, the default
// AutoPolicy, a fresh online solver as the planner.
func serveMode(cfg sim.Config) serve.Config {
	sc := sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
	sc.Replan = false
	sc.Policy = nil
	return sc
}

func setupServeChurn(seed int64, _ int, tr *tracer) (runner, error) {
	r := &daemonRunner{name: "serve_churn"}
	for i := 0; i < churnScenarios; i++ {
		cfg, script, err := simScenario(churnNodes, churnRadius, churnUsers, churnEpochs, churnNodeFail, 0,
			scenarioSeed(seed, r.name, i), tr)
		if err != nil {
			return nil, err
		}
		r.scenarios = append(r.scenarios, daemonScenario{epochs: byEpoch(script),
			config: func() serve.Config { return serveMode(cfg) }})
	}
	return r, nil
}

// ---- serve_steady: long-lived requests, one small change every 8th epoch ----

const (
	steadyScenarios  = 16
	steadyNodes      = 60
	steadyRadius     = 0.35
	steadyRequests   = 1000
	steadyEpochs     = 320 // per scenario: 5120 epochs a pass
	steadyChangeGap  = 8   // 1 depart + 1 arrive + 2 moves every 8th epoch
	steadyCrashGap   = 250 // a node crashes every 250th epoch...
	steadyCrashHeals = 5   // ...and recovers 5 epochs later
)

// steadyScript generates one serve_steady stream. sim.EventStream cannot: its
// requests live one slot, so every epoch changes the active set and the
// daemon never takes its incremental path. Here a thousand requests arrive at
// epoch 0 and stay; every eighth epoch one departs, one arrives and two move
// to a neighbouring node; every 250th a node crashes and heals five epochs
// on. It returns the script and the active set it ends with.
func steadyScript(g *topology.Graph, cat *msvc.Catalog, base sim.Config, seed int64, tr *tracer) (*serve.Script, []msvc.Request, error) {
	changes := steadyEpochs / steadyChangeGap
	wcfg := base.Workload
	wcfg.NumUsers = steadyRequests + changes
	id := tr.begin("msvc.generate")
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	s := &serve.Script{Meta: serve.Meta{
		Nodes: g.N(), Radius: steadyRadius, TopoSeed: seed, CatSeed: seed,
		Lambda: base.Lambda, Budget: base.Budget, SlotMinutes: base.SlotMinutes,
		NumSlots: steadyEpochs, RouteSeed: stats.SplitSeed(seed, "sim/route"),
	}}
	r := stats.NewRand(stats.SplitSeed(seed, "bench/steady"))
	arrive := func(slot int, req msvc.Request) {
		s.Events = append(s.Events, serve.Event{Slot: slot, Kind: serve.EvArrive, ID: req.ID, Node: req.Home, Req: req})
	}
	fault := func(slot int, kind chaos.FaultKind, node int) {
		s.Events = append(s.Events, serve.Event{Slot: slot, Kind: serve.EvFault,
			Fault: chaos.Event{Slot: slot, Kind: kind, Node: node}})
	}
	active := make([]msvc.Request, steadyRequests, steadyRequests+1)
	copy(active, w.Requests[:steadyRequests])
	for _, req := range active {
		arrive(0, req)
	}
	down := -1 // the node currently crashed, if any
	next := steadyRequests
	for e := 1; e < steadyEpochs; e++ {
		if e%steadyChangeGap == 0 {
			i := r.Intn(len(active))
			s.Events = append(s.Events, serve.Event{Slot: e, Kind: serve.EvDepart, ID: active[i].ID})
			active = append(active[:i], active[i+1:]...)
			arrive(e, w.Requests[next])
			active = append(active, w.Requests[next])
			next++
			for m := 0; m < 2; m++ {
				j := r.Intn(len(active))
				if nb := g.Neighbors(active[j].Home); len(nb) > 0 {
					active[j].Home = nb[r.Intn(len(nb))]
					s.Events = append(s.Events, serve.Event{Slot: e, Kind: serve.EvMove, ID: active[j].ID, Node: active[j].Home})
				}
			}
		}
		if e%steadyCrashGap == 0 {
			down = r.Intn(g.N())
			fault(e, chaos.NodeCrash, down)
		}
		if down >= 0 && e%steadyCrashGap == steadyCrashHeals {
			fault(e, chaos.NodeRecover, down)
			down = -1
		}
	}
	return s, active, nil
}

func setupServeSteady(seed int64, _ int, tr *tracer) (runner, error) {
	r := &daemonRunner{name: "serve_steady"}
	for i := 0; i < steadyScenarios; i++ {
		s := scenarioSeed(seed, r.name, i)
		id := tr.begin("topology.build")
		g := topology.RandomGeometric(steadyNodes, steadyRadius, topology.DefaultGenConfig(), s)
		tr.end(id)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), s)
		base := sim.DefaultConfig(g, cat, steadyRequests, s)
		script, steady, err := steadyScript(g, cat, base, s, tr)
		if err != nil {
			return nil, err
		}
		config := func() serve.Config {
			algo := sim.NewSoCLOnline(core.DefaultConfig())
			return serve.Config{
				Graph: g, Catalog: cat, Lambda: base.Lambda, Budget: base.Budget,
				Mode: algo.Routing(), RouteSeed: script.Meta.RouteSeed,
				Planner: algo.Place, PlannerName: algo.Name(),
				Lifecycle: serve.LifecycleConfig{IdleEpochs: 3, WarmPool: 1, ColdStartDelay: 0.25},
			}
		}
		r.scenarios = append(r.scenarios, daemonScenario{epochs: byEpoch(script), steady: steady, config: config})
	}
	return r, nil
}
