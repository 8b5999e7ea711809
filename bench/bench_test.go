package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.05, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestMedianOfPasses(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// A metric is the median over passes of a per-pass percentile: one slow
	// pass must not move it, and min/max must still show it.
	ps := []*pass{
		{ops: []float64{10, 11, 12, 13}, wall: time.Second, events: 4},
		{ops: []float64{10, 11, 12, 500}, wall: time.Second, events: 4},
		{ops: []float64{9, 11, 12, 13}, wall: time.Second, events: 4},
	}
	ms := namedMetrics("serve", []float64{0.5, 0.1, 0.3}, ps)
	get := func(name string) Metric {
		for _, m := range ms {
			if m.Name == name {
				return m
			}
		}
		t.Fatalf("metric %s missing", name)
		return Metric{}
	}
	if m := get("tick_p50_us"); m.Median != 11 || m.Samples != 12 || len(m.Passes) != 3 {
		t.Errorf("tick_p50_us = %+v, want median 11 over 12 samples in 3 passes", m)
	}
	if m := get("tick_p99_us"); m.Median != 13 || m.Min != 13 || m.Max != 500 {
		t.Errorf("tick_p99_us = %+v, want median 13, min 13, max 500", m)
	}
	if m := get("setup_s"); m.Median != 0.3 {
		t.Errorf("setup_s median = %v, want 0.3", m.Median)
	}
	if m := get("events_per_s"); m.Median != 4 {
		t.Errorf("events_per_s = %v, want 4", m.Median)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got, want := quartileSpread([]float64{10, 12, 11}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(10,12,11) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one sample has spread %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// tick [0,100] has children policy [10,60] and planner [70,90]; policy has
	// child repair [20,50]. A second tick [200,230] has no children.
	spans := []span{
		{Name: "tick", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "policy", Start: 10, End: 60, Parent: 0, Op: 1},
		{Name: "repair", Start: 20, End: 50, Parent: 1, Op: 1},
		{Name: "planner", Start: 70, End: 90, Parent: 0, Op: 1},
		{Name: "tick", Start: 200, End: 230, Parent: -1, Op: 2},
	}
	lt := selfTimes(spans)
	want := map[string]layerTime{
		"tick":    {Calls: 2, Total: 130, Self: 60}, // (100-50-20) + 30
		"policy":  {Calls: 1, Total: 50, Self: 20},
		"repair":  {Calls: 1, Total: 30, Self: 30},
		"planner": {Calls: 1, Total: 20, Self: 20},
	}
	if !reflect.DeepEqual(lt, want) {
		t.Errorf("selfTimes = %+v, want %+v", lt, want)
	}
	var self time.Duration
	for _, l := range lt {
		self += l.Self
	}
	if self != 130 { // self times partition the top-level spans
		t.Errorf("self times sum to %d, want 130", self)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.nextOp()
	off.end(off.begin("x")) // the untraced run must be a no-op, not a crash
	off.reset()

	tr := newTracer()
	tr.nextOp()
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	tr.nextOp()
	c := tr.begin("c")
	tr.end(c)
	if len(tr.spans) != 3 || tr.spans[b].Parent != a || tr.spans[a].Parent != -1 || tr.spans[c].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[a].Op != 1 || tr.spans[b].Op != 1 || tr.spans[c].Op != 2 {
		t.Errorf("ops = %d %d %d, want 1 1 2", tr.spans[a].Op, tr.spans[b].Op, tr.spans[c].Op)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func scriptBytes(t *testing.T, s *serve.Script) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := serve.WriteScript(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// validScript checks a generated script the way a daemon's front door would:
// it survives the text format, and every event names a node and a chain the
// scenario has.
func validScript(t *testing.T, s *serve.Script, nodes int, cat *msvc.Catalog) {
	t.Helper()
	back, err := serve.ParseScript(bytes.NewReader(scriptBytes(t, s)))
	if err != nil {
		t.Fatalf("script does not parse back: %v", err)
	}
	if !bytes.Equal(scriptBytes(t, back), scriptBytes(t, s)) {
		t.Fatal("script does not round-trip byte for byte")
	}
	prev := 0
	for i, ev := range s.Events {
		if ev.Slot < prev {
			t.Fatalf("event %d goes back in time (%d after %d)", i, ev.Slot, prev)
		}
		prev = ev.Slot
		switch ev.Kind {
		case serve.EvArrive:
			if err := ev.Req.Validate(cat.Len(), nodes); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		case serve.EvMove:
			if ev.Node < 0 || ev.Node >= nodes {
				t.Fatalf("event %d moves to node %d of %d", i, ev.Node, nodes)
			}
		}
	}
}

// TestGeneratorsAreSeeded pins that every input is a function of the seed
// alone — so a number can be re-measured on the same inputs — and that a
// second seed gives different but valid inputs, so a claim can be re-checked
// on a seed it was not tuned on.
func TestGeneratorsAreSeeded(t *testing.T) {
	stream := func(seed int64) (*serve.Script, sim.Config) {
		cfg, s, err := simScenario(8, churnRadius, 8, 60, churnNodeFail, 0.15, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s, cfg
	}
	steady := func(seed int64) (*serve.Script, *topology.Graph, *msvc.Catalog) {
		g := topology.RandomGeometric(steadyNodes, steadyRadius, topology.DefaultGenConfig(), seed)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
		s, active, err := steadyScript(g, cat, sim.DefaultConfig(g, cat, steadyRequests, seed), seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(active) != steadyRequests {
			t.Fatalf("steady script ends with %d active requests, want %d", len(active), steadyRequests)
		}
		return s, g, cat
	}
	a, cfgA := stream(1)
	b, _ := stream(1)
	c, cfgC := stream(2)
	if !bytes.Equal(scriptBytes(t, a), scriptBytes(t, b)) {
		t.Error("event stream: same seed, different scripts")
	}
	if bytes.Equal(scriptBytes(t, a), scriptBytes(t, c)) {
		t.Error("event stream: seeds 1 and 2 give the same script")
	}
	validScript(t, a, cfgA.Graph.N(), cfgA.Catalog)
	validScript(t, c, cfgC.Graph.N(), cfgC.Catalog)

	sa, ga, cata := steady(1)
	sb, _, _ := steady(1)
	sc, gc, catc := steady(2)
	if !bytes.Equal(scriptBytes(t, sa), scriptBytes(t, sb)) {
		t.Error("steady stream: same seed, different scripts")
	}
	if bytes.Equal(scriptBytes(t, sa), scriptBytes(t, sc)) {
		t.Error("steady stream: seeds 1 and 2 give the same script")
	}
	validScript(t, sa, ga.N(), cata)
	validScript(t, sc, gc.N(), catc)

	hash := func(seed int64) uint64 {
		r, err := setupBatchGlobal(seed, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, in := range r.(*globalRunner).ins {
			if err := in.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, n := range in.Graph.Nodes() {
				fmt.Fprintln(h, math.Float64bits(n.X), math.Float64bits(n.Compute), math.Float64bits(n.Storage))
			}
			for _, req := range in.Workload.Requests {
				fmt.Fprintln(h, req.Home, req.Chain, math.Float64bits(req.DataIn), math.Float64bits(req.Deadline))
			}
		}
		return h.Sum64()
	}
	if h1, h2 := hash(1), hash(1); h1 != h2 {
		t.Errorf("batch workload: same seed hashes to %x and %x", h1, h2)
	}
	if hash(1) == hash(2) {
		t.Error("batch workload: seeds 1 and 2 give the same instances")
	}
}

// TestFramedClientOverUnixSocket plays a short ordered session through the
// bench's closed-loop client against a real unix listener, traced and not,
// and holds it to the same checks the wire_ordered workload runs.
func TestFramedClientOverUnixSocket(t *testing.T) {
	spec := wireScenarioSpec{count: 2, nodes: 8, users: 8, epochs: 40}
	r, err := newWireRunner("smoke", "unix", transport.Config{Ordered: true}, nil, spec, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	epochs, events := 0, 0
	for _, sc := range r.(*wireRunner).scenarios {
		epochs += len(sc.session.epochs)
		events += len(sc.script.Events)
	}
	if epochs != spec.count*spec.epochs {
		t.Fatalf("sessions hold %d epochs, want %d", epochs, spec.count*spec.epochs)
	}
	for _, tr := range []*tracer{nil, newTracer(), nil} { // six sessions on one connection
		p, err := r.pass(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.ops) != epochs || len(p.acks) != events || p.events != events {
			t.Fatalf("pass timed %d epochs and %d acks, admitted %d; want %d, %d, %d",
				len(p.ops), len(p.acks), p.events, epochs, events, events)
		}
		if p.failed != 0 || p.opErrors != 0 {
			t.Fatalf("clean ordered session failed %d of %d frames, %d errors", p.failed, p.attempted, p.opErrors)
		}
		if tr != nil && (p.layers["transport.handle_tick_us"] <= 0 || p.layers["transport.self_us"] == 0) {
			t.Errorf("traced pass has no transport layer numbers: %v", p.layers)
		}
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(".benchsock-*")
	if err != nil || len(left) > 0 {
		t.Errorf("socket directories left behind: %v %v", left, err)
	}
}

func TestJudge(t *testing.T) {
	timed := metricDef{name: "tick_p50_us", better: lower, bound: 0.10}
	rate := metricDef{name: "events_per_s", better: higher, bound: 0.10}
	exact := metricDef{name: "fail_frac", better: lower}
	steady := func(v float64) Metric {
		return Metric{Median: v, Passes: []float64{v * 0.99, v, v, v * 1.01, v}}
	}
	noisy := func(v float64) Metric {
		return Metric{Median: v, Passes: []float64{v * 0.5, v * 0.8, v, v * 1.3, v * 1.6}}
	}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, cur Metric
		want     string
	}{
		{"within bound", timed, steady(100), steady(108), verdictOK},
		{"past bound", timed, steady(100), steady(112), verdictRegressed},
		{"better", timed, steady(100), steady(50), verdictOK},
		{"noise hides it", timed, noisy(100), steady(112), verdictUnresolved},
		{"noise, but every pass better", timed, noisy(100), steady(40), verdictOK},
		{"rate fell", rate, steady(1000), steady(850), verdictRegressed},
		{"rate rose", rate, steady(1000), steady(1500), verdictOK},
		{"exact repeats", exact, Metric{Median: 0.079}, Metric{Median: 0.079}, verdictOK},
		{"exact worse by a hair", exact, Metric{Median: 0.079}, Metric{Median: 0.0790001}, verdictRegressed},
		{"exact from zero", exact, Metric{Median: 0}, Metric{Median: 0.01}, verdictRegressed},
		{"exact better", exact, Metric{Median: 0.079}, Metric{Median: 0.05}, verdictOK},
	} {
		if got, _, _ := judge(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestManifest holds ../BENCHMARK.json to the tables the code measures by and
// to the limits the benchmark contract sets on it.
func TestManifest(t *testing.T) {
	want, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	var wantV, gotV any
	if err := json.Unmarshal(want, &wantV); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &gotV); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Error("../BENCHMARK.json is out of date: regenerate it with `go run . manifest`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range contract {
		use(d.name)
		if !unit.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", d.name, d.unit, d.bound)
		}
		hasSetup = hasSetup || d.name == "setup_s" && d.unit == "s" && d.better == lower
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, d := range perLayer {
		use(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("per-layer metric %s: unit %q", d.name, d.unit)
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}

// TestCheckPlacementCatchesViolations makes sure the batch output check can
// fail: a placement with every service on every node breaks Eq. 5 and 6.
func TestCheckPlacementCatchesViolations(t *testing.T) {
	r, err := setupBatchGlobal(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := r.(*globalRunner).ins[0]
	full := model.NewPlacement(in.M(), in.V())
	for i := range full.X {
		for k := range full.X[i] {
			full.X[i][k] = true
		}
	}
	if err := checkPlacement(in, full); err == nil {
		t.Error("a placement of everything everywhere passed the Eq. 5/6 check")
	}
	if err := checkPlacement(in, model.NewPlacement(in.M(), in.V())); err != nil {
		t.Errorf("the empty placement failed: %v", err)
	}
}
