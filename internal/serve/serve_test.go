package serve

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/repair"
	"repro/internal/topology"
)

func testScenario(t testing.TB, nodes, users int, seed int64) (*topology.Graph, *msvc.Catalog, []msvc.Request) {
	t.Helper()
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(users), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, cat, w.Requests
}

func testConfig(g *topology.Graph, cat *msvc.Catalog) Config {
	return Config{
		Graph:   g,
		Catalog: cat,
		Lambda:  0.5,
		Budget:  8000,
		Mode:    model.RouteModeOptimal,
		Planner: func(in *model.Instance) (model.Placement, error) {
			sol, err := core.Solve(in, core.DefaultConfig())
			if err != nil {
				return model.Placement{}, err
			}
			return sol.Placement, nil
		},
		PlannerName: "SoCL",
	}
}

func arrivals(slot, startID int, reqs []msvc.Request) []Event {
	evs := make([]Event, len(reqs))
	for i := range reqs {
		evs[i] = Event{Slot: slot, Kind: EvArrive, ID: startID + i, Node: reqs[i].Home, Req: reqs[i]}
	}
	return evs
}

// TestDaemonScaleToZero: once the workload departs, every instance must age
// out and scale to zero (the demand window drains, so the warm-pool target
// falls to nothing), and a returning request must be served again — paying
// cold starts on the re-provisioned instances.
func TestDaemonScaleToZero(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 6, 71)
	cfg := testConfig(g, cat)
	cfg.Lifecycle = LifecycleConfig{IdleEpochs: 2, WarmWindow: 3, ColdStartDelay: 0.5}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs)...)
	rec, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Arrived != len(reqs) || !rec.Resolved {
		t.Fatalf("first epoch: arrived=%d resolved=%v", rec.Arrived, rec.Resolved)
	}
	if rec.ColdSteps == 0 {
		t.Fatal("the initial solve's instances should all start cold")
	}
	deployed := d.Placement().Instances()
	if deployed == 0 {
		t.Fatal("nothing deployed")
	}

	for i := range reqs {
		d.Ingest(Event{Slot: 1, Kind: EvDepart, ID: i})
	}
	scaled := 0
	for e := 0; e < 8; e++ {
		rec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		scaled += rec.ScaledToZero
	}
	if scaled != deployed {
		t.Fatalf("scaled %d of %d instances to zero", scaled, deployed)
	}
	if d.Placement().Instances() != 0 {
		t.Fatalf("%d instances survive an empty demand window", d.Placement().Instances())
	}

	d.Ingest(arrivals(d.Epoch(), 100, reqs[:1])...)
	rec, err = d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requests != 1 || rec.Missing+rec.Unroutable > 0 {
		t.Fatalf("returning request not served: %+v", rec)
	}
	if rec.Adds == 0 && !rec.Resolved {
		t.Fatal("service resumed without provisioning anything")
	}
	if rec.ColdSteps == 0 {
		t.Fatal("a scale-from-zero epoch must pay cold starts")
	}
}

// TestDaemonIncrementalEpochs: steady epochs (no events) must be served by
// the delta evaluator, not a policy, and produce the same numbers as the
// reacting epoch before them.
func TestDaemonIncrementalEpochs(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 6, 72)
	d, err := NewDaemon(testConfig(g, cat))
	if err != nil {
		t.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs)...)
	first, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if first.Incremental {
		t.Fatal("first epoch cannot be incremental")
	}
	for e := 0; e < 3; e++ {
		rec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Incremental {
			t.Fatalf("steady epoch %d ran a policy", rec.Epoch)
		}
		if rec.Objective != first.Objective || rec.Cost != first.Cost {
			t.Fatalf("steady epoch %d drifted: obj %v vs %v", rec.Epoch, rec.Objective, first.Objective)
		}
	}
}

// TestDaemonFaultReaction: a node crash must trigger a policy epoch (not an
// incremental one) and keep serving what can be served.
func TestDaemonFaultReaction(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 6, 75)
	d, err := NewDaemon(testConfig(g, cat))
	if err != nil {
		t.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs)...)
	if _, err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	crash := -1
	for k := 0; k < g.N() && crash < 0; k++ {
		for i := 0; i < cat.Len(); i++ {
			if d.Placement().Has(i, k) {
				crash = k
				break
			}
		}
	}
	if crash < 0 {
		t.Fatal("nothing deployed to crash")
	}
	d.Ingest(Event{Slot: 1, Kind: EvFault, Fault: chaos.Event{Kind: chaos.NodeCrash, Node: crash}})
	rec, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Incremental {
		t.Fatal("a fault epoch took the incremental path")
	}
	if rec.FaultEvents != 1 || rec.DownNodes != 1 {
		t.Fatalf("fault telemetry: %+v", rec)
	}
	if rec.Missing+rec.Unroutable > 0 && rec.Adds == 0 && !rec.Resolved {
		t.Fatal("service lost and no reaction recorded")
	}
}

// TestDaemonBatching: MaxBatch must admit exactly N arrivals per epoch and
// defer the overflow in admission order.
func TestDaemonBatching(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 8, 73)
	if len(reqs) < 5 {
		t.Skipf("scenario too small: %d requests", len(reqs))
	}
	reqs = reqs[:5]
	cfg := testConfig(g, cat)
	cfg.MaxBatch = 2
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs)...)
	var admitted []int
	for e := 0; e < 4; e++ {
		rec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, rec.Arrived)
	}
	want := []int{2, 2, 1, 0}
	for i := range want {
		if admitted[i] != want[i] {
			t.Fatalf("admissions per epoch = %v, want %v", admitted, want)
		}
	}
	if d.ActiveRequests() != 5 {
		t.Fatalf("active = %d, want 5", d.ActiveRequests())
	}
	// Deferred arrivals keep admission order: active IDs must be 0..4.
	for i := 0; i < 5; i++ {
		if d.findActive(i) != i {
			t.Fatalf("request %d admitted out of order (index %d)", i, d.findActive(i))
		}
	}
}

// noopRepair is a repair that refuses to change anything: the stale placement
// is returned with its own evaluation, leaving every unserved request
// unserved. It forces AutoPolicy's escalation branch through the Run seam.
func noopRepair(in *model.Instance, m *chaos.Mask, p model.Placement, rc repair.Config) (*repair.Result, error) {
	ev := m.Instance(in).EvaluateRouted(p, rc.Mode, rc.Seed)
	return &repair.Result{Placement: p, Before: ev, After: ev}, nil
}

// TestAutoPolicyEscalates: when repair leaves more than Threshold of the
// epoch unserved, AutoPolicy must fall through to the full re-solve — and
// must not when escalation is disabled.
func TestAutoPolicyEscalates(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 6, 74)
	cfg := testConfig(g, cat)
	in := &model.Instance{
		Graph:    g,
		Workload: &msvc.Workload{Catalog: cat, Requests: reqs},
		Lambda:   0.5,
		Budget:   8000,
	}
	ctx := &EpochContext{
		In:          in,
		Mask:        chaos.NewMask(g),
		Planned:     model.NewPlacement(cat.Len(), g.N()),
		Mode:        model.RouteModeOptimal,
		Seed:        1,
		Resolve:     cfg.Planner,
		PlannerName: cfg.PlannerName,
	}
	out, err := AutoPolicy{Threshold: 0.5, Repair: RepairPolicy{Run: noopRepair}}.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resolved {
		t.Fatal("auto policy did not escalate past a useless repair")
	}
	if out.Eval.Unserved() != 0 {
		t.Fatalf("escalated outcome still leaves %d unserved", out.Eval.Unserved())
	}

	out, err = AutoPolicy{Threshold: -1, Repair: RepairPolicy{Run: noopRepair}}.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resolved || out.Eval.Unserved() == 0 {
		t.Fatal("negative threshold escalated anyway")
	}
}

// TestParseScriptErrors: malformed script lines must fail with the line
// number, not be skipped.
func TestParseScriptErrors(t *testing.T) {
	const meta = "meta nodes=4 radius=0x1p-1 toposeed=1 catseed=1 lambda=0x1p-1 budget=0x1p13 slotmin=0x1.4p2 slots=2 routeseed=9 cloudtransfer=0 cloudcompute=0\n"
	cases := []struct {
		name, text, want string
	}{
		{"no meta", "arrive 0 0 1 0x1p0 0x1p0 +Inf 1,2 0x1p-1\n", "meta"},
		{"bad directive", meta + "frobnicate 0 1\n", "line 2"},
		{"edge mismatch", meta + "arrive 0 0 1 0x1p0 0x1p0 +Inf 1,2,3 0x1p-1\n", "line 2"},
		{"bad fault kind", meta + "fault 0 gamma-ray 3\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScript(strings.NewReader(tc.text))
			if err == nil {
				t.Fatal("malformed script parsed cleanly")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWarmPoolSizer: the deterministic sizer must track the windowed demand
// peak and honor the WarmPool floor.
func TestWarmPoolSizer(t *testing.T) {
	l := newLifecycle(LifecycleConfig{IdleEpochs: 1, WarmPool: 1, WarmWindow: 2, ReqsPerWarm: 4}, 2, 3)
	p := model.NewPlacement(2, 3)
	l.observe(nil, []int{9, 0}, p, false) // demand 9 → ceil(9/4) = 3 warm
	if got := l.target(0); got != 3 {
		t.Fatalf("target(0) = %d, want 3", got)
	}
	if got := l.target(1); got != 1 { // floor
		t.Fatalf("target(1) = %d, want the WarmPool floor 1", got)
	}
	l.observe(nil, []int{0, 0}, p, false)
	if got := l.target(0); got != 3 { // peak still inside the window
		t.Fatalf("target(0) after one idle epoch = %d, want 3", got)
	}
	l.observe(nil, []int{0, 0}, p, false)
	if got := l.target(0); got != 1 { // window drained; floor remains
		t.Fatalf("target(0) after the window drained = %d, want 1", got)
	}
}

// TestReapRespectsWarmTarget: idle instances above the target go first (in
// ascending order), the rest are kept as spares.
func TestReapRespectsWarmTarget(t *testing.T) {
	l := newLifecycle(LifecycleConfig{IdleEpochs: 2, WarmPool: 1, WarmWindow: 2, ReqsPerWarm: 8}, 1, 4)
	p := model.NewPlacement(1, 4)
	for k := 0; k < 3; k++ {
		p.Set(0, k, true)
	}
	l.observe(nil, []int{0}, p, false)
	l.observe(nil, []int{0}, p, false) // all three idle for 2 epochs
	removed, spares := l.reap(p)
	if len(removed) != 2 || spares != 1 {
		t.Fatalf("removed %v, spares %d; want 2 removals and 1 spare", removed, spares)
	}
	if !p.Has(0, 2) || p.Has(0, 0) || p.Has(0, 1) {
		t.Fatalf("reap order wrong: %v survives", p.NodesOf(0))
	}
}
