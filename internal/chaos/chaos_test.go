package chaos

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

func testInstance(t *testing.T, nodes, users int, seed int64) *model.Instance {
	t.Helper()
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
}

func TestScheduleDeterministic(t *testing.T) {
	g := topology.RandomGeometric(10, 0.4, topology.DefaultGenConfig(), 7)
	for _, cfg := range []ScheduleConfig{DefaultScheduleConfig(), CorrelatedScheduleConfig(), FlappingScheduleConfig()} {
		a := Generate(g, 40, cfg, 42)
		b := Generate(g, 40, cfg, 42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same seed produced different schedules")
		}
		if len(a.Events) == 0 {
			t.Fatalf("no fault events over 40 slots at default rates")
		}
		c := Generate(g, 40, cfg, 43)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("different seeds produced identical schedules (len %d)", len(a.Events))
		}
	}
}

// TestScheduleReplayConsistency replays a generated schedule through a mask
// and checks the pairing discipline: crashes target up nodes, recoveries
// target down nodes, and every event applies cleanly.
func TestScheduleReplayConsistency(t *testing.T) {
	g := topology.RandomGeometric(12, 0.4, topology.DefaultGenConfig(), 3)
	sched := Generate(g, 60, CorrelatedScheduleConfig(), 11)
	m := NewMask(g)
	for _, ev := range sched.Events {
		switch ev.Kind {
		case NodeCrash:
			if !m.NodeUp(ev.Node) {
				t.Fatalf("%v: crash of an already-down node", ev)
			}
		case NodeRecover:
			if m.NodeUp(ev.Node) {
				t.Fatalf("%v: recovery of an up node", ev)
			}
		}
		epoch := m.Epoch()
		if err := m.Apply(ev); err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if m.Epoch() == epoch {
			t.Fatalf("%v: effective event did not bump the epoch", ev)
		}
		if len(m.DownNodes()) == m.base.N() {
			t.Fatalf("%v: schedule took every node down", ev)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	g := topology.RandomGeometric(8, 0.4, topology.DefaultGenConfig(), 5)
	sched := Generate(g, 30, FlappingScheduleConfig(), 9)
	total := 0
	for slot := 0; slot < sched.NumSlots; slot++ {
		for _, ev := range sched.At(slot) {
			if ev.Slot != slot {
				t.Fatalf("At(%d) returned %v", slot, ev)
			}
			total++
		}
	}
	if total != len(sched.Events) {
		t.Fatalf("At slices cover %d of %d events", total, len(sched.Events))
	}
}

func TestMaskNoopAndEpoch(t *testing.T) {
	g := topology.RandomGeometric(6, 0.5, topology.DefaultGenConfig(), 1)
	m := NewMask(g)
	if !m.Pristine() || m.Epoch() != 0 {
		t.Fatalf("fresh mask not pristine at epoch 0")
	}
	if err := m.Apply(Event{Kind: NodeCrash, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 || m.Pristine() || m.NodeUp(2) {
		t.Fatalf("crash not reflected: epoch %d pristine %v up %v", m.Epoch(), m.Pristine(), m.NodeUp(2))
	}
	// Re-crashing is a no-op: no epoch bump.
	if err := m.Apply(Event{Kind: NodeCrash, Node: 2}); err != nil || m.Epoch() != 1 {
		t.Fatalf("no-op crash bumped epoch to %d (err %v)", m.Epoch(), err)
	}
	if got := m.DownNodes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DownNodes = %v", got)
	}
	if err := m.Apply(Event{Kind: NodeRecover, Node: 2}); err != nil || !m.Pristine() {
		t.Fatalf("recovery did not restore pristine state (err %v)", err)
	}
	// Unknown link: loud error.
	if err := m.Apply(Event{Kind: LinkDegrade, A: 0, B: 0, Factor: 0.5}); err == nil {
		t.Fatal("degrading a non-existent link did not error")
	}
	if err := m.Apply(Event{Kind: NodeCrash, Node: 99}); err == nil {
		t.Fatal("crashing an out-of-range node did not error")
	}
}

func TestMaskedGraphProperties(t *testing.T) {
	g := topology.RandomGeometric(9, 0.45, topology.DefaultGenConfig(), 17)
	m := NewMask(g)
	links := g.Links()
	l := links[0]
	for _, x := range links { // pick the smallest (A,B) link for stability
		if x.A < l.A || (x.A == l.A && x.B < l.B) {
			l = x
		}
	}

	if err := m.Apply(Event{Kind: NodeCrash, Node: 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Event{Kind: StorageShrink, Node: 1, Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	mg := m.Graph()
	if mg == g {
		t.Fatal("masked graph aliases the base despite active faults")
	}
	for q := 0; q < g.N(); q++ {
		if q == 4 {
			continue
		}
		if !math.IsInf(mg.PathCost(4, q), 1) {
			t.Fatalf("crashed node 4 still reaches %d (cost %v)", q, mg.PathCost(4, q))
		}
	}
	if want := g.Node(1).Storage * 0.5; mg.Node(1).Storage != want {
		t.Fatalf("shrunk storage %v != %v", mg.Node(1).Storage, want)
	}
	if mg.Node(2).Storage != g.Node(2).Storage {
		t.Fatalf("unshrunk node 2 storage changed")
	}

	// Degrade one link not incident to the crashed node, if needed pick another.
	if l.A == 4 || l.B == 4 {
		for _, x := range links {
			if x.A != 4 && x.B != 4 {
				l = x
				break
			}
		}
	}
	if err := m.Apply(Event{Kind: LinkDegrade, A: l.A, B: l.B, Factor: 0.25}); err != nil {
		t.Fatal(err)
	}
	mg = m.Graph()
	rate, ok := mg.LinkRate(l.A, l.B)
	if !ok || rate != l.Rate*0.25 {
		t.Fatalf("degraded link rate %v (ok %v), want %v", rate, ok, l.Rate*0.25)
	}
	// The same epoch returns the cached derived graph.
	if m.Graph() != mg {
		t.Fatal("derived graph not cached per epoch")
	}
}

// TestMaskRoundTrip is the crash-then-recover bitwise guarantee: after every
// fault heals, the mask hands back the base graph itself and evaluation is
// bit-identical to the pre-fault baseline.
func TestMaskRoundTrip(t *testing.T) {
	in := testInstance(t, 8, 25, 21)
	p := baselines.JDR(in)
	ev0 := in.EvaluateRouted(p, model.RouteModeOptimal, 0)

	m := NewMask(in.Graph)
	l := NewMask(in.Graph).links[0]
	faults := []Event{
		{Kind: NodeCrash, Node: 3},
		{Kind: LinkDegrade, A: l.A, B: l.B, Factor: 0.2},
		{Kind: StorageShrink, Node: 0, Factor: 0.3},
	}
	heals := []Event{
		{Kind: NodeRecover, Node: 3},
		{Kind: LinkRestore, A: l.A, B: l.B},
		{Kind: StorageRestore, Node: 0},
	}
	for _, ev := range faults {
		if err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if m.Pristine() || m.Graph() == in.Graph {
		t.Fatal("faults did not detach the masked view")
	}
	masked, lost := m.MaskPlacement(p)
	for _, li := range lost {
		if li.Node != 3 {
			t.Fatalf("lost instance %v not on the crashed node", li)
		}
		if masked.Has(li.Svc, li.Node) {
			t.Fatalf("lost instance %v still present in masked placement", li)
		}
	}
	if p.Instances() != masked.Instances()+len(lost) {
		t.Fatalf("masking dropped %d of %d instances but reported %d lost",
			p.Instances()-masked.Instances(), p.Instances(), len(lost))
	}

	for _, ev := range heals {
		if err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Pristine() {
		t.Fatal("healing every fault did not restore pristine state")
	}
	if m.Graph() != in.Graph {
		t.Fatal("pristine mask does not alias the base graph")
	}
	ev1 := m.Instance(in).EvaluateRouted(p, model.RouteModeOptimal, 0)
	if math.Float64bits(ev1.Objective) != math.Float64bits(ev0.Objective) ||
		math.Float64bits(ev1.LatencySum) != math.Float64bits(ev0.LatencySum) ||
		math.Float64bits(ev1.Cost) != math.Float64bits(ev0.Cost) {
		t.Fatalf("post-recovery evaluation diverges: obj %v vs %v, lat %v vs %v, cost %v vs %v",
			ev1.Objective, ev0.Objective, ev1.LatencySum, ev0.LatencySum, ev1.Cost, ev0.Cost)
	}
	for h := range ev0.Latencies {
		if math.Float64bits(ev1.Latencies[h]) != math.Float64bits(ev0.Latencies[h]) {
			t.Fatalf("request %d latency %v != baseline %v", h, ev1.Latencies[h], ev0.Latencies[h])
		}
	}
}

// TestMaskedEvaluationClassesSplit pins the missing-vs-unroutable split on a
// masked substrate: crashing a node that hosts the only instance of a
// service yields MissingInstances, while crashing a *user's* node (leaving
// instances intact elsewhere) yields Unroutable for its requests.
func TestMaskedEvaluationClassesSplit(t *testing.T) {
	in := testInstance(t, 8, 25, 21)
	p := baselines.JDR(in)

	// Crash a node hosting some service's only instance, if one exists.
	m := NewMask(in.Graph)
	var target = -1
	for i := range p.X {
		if nodes := p.NodesOf(i); len(nodes) == 1 {
			target = nodes[0]
			break
		}
	}
	if target >= 0 {
		if err := m.Apply(Event{Kind: NodeCrash, Node: target}); err != nil {
			t.Fatal(err)
		}
		masked, _ := m.MaskPlacement(p)
		ev := m.Instance(in).EvaluateRouted(masked, model.RouteModeOptimal, 0)
		if ev.MissingInstances == 0 {
			t.Fatalf("crashing sole-instance node %d produced no MissingInstances", target)
		}
		if ev.Unserved() != ev.MissingInstances+ev.Unroutable {
			t.Fatalf("Unserved %d != Missing %d + Unroutable %d", ev.Unserved(), ev.MissingInstances, ev.Unroutable)
		}
	}

	// Crash a pure user node: pick one hosting nothing but homing requests.
	m2 := NewMask(in.Graph)
	hosts := make([]bool, in.V())
	for i := range p.X {
		for _, k := range p.NodesOf(i) {
			hosts[k] = true
		}
	}
	for _, req := range in.Workload.Requests {
		if !hosts[req.Home] {
			if err := m2.Apply(Event{Kind: NodeCrash, Node: req.Home}); err != nil {
				t.Fatal(err)
			}
			masked, lost := m2.MaskPlacement(p)
			if len(lost) != 0 {
				t.Fatalf("crashing non-hosting node %d lost instances %v", req.Home, lost)
			}
			ev := m2.Instance(in).EvaluateRouted(masked, model.RouteModeOptimal, 0)
			if ev.Unroutable == 0 {
				t.Fatalf("crashing user node %d produced no Unroutable requests", req.Home)
			}
			if ev.MissingInstances != 0 {
				t.Fatalf("crashing non-hosting node %d produced MissingInstances %d", req.Home, ev.MissingInstances)
			}
			break
		}
	}
}
