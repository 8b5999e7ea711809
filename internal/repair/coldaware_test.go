package repair

import (
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// TestColdAwareMatchesNaive pins reference-scorer equivalence for the warm-aware
// engine: the cold-start surcharge is computed outside the scorer, so the
// delta and scratch paths must keep making bitwise-identical decisions when
// the instance's ColdStartModel is charged into the probe scores.
func TestColdAwareMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in := testInstance(t, 8, 25, seed)
		p := baselines.JDR(in)
		m := chaos.NewMask(in.Graph)
		for _, ev := range faultsOf(t, chaos.NodeCrash, in, p) {
			if err := m.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		// Warm exactly the pre-fault deployment: everything else is cold, so
		// restoration onto fresh nodes pays the surcharge.
		cs := model.NewColdStartModel(in.M(), in.V(), 0.75)
		cs.SyncWarm(p)
		in.ColdStart = cs

		cfg := Config{}
		fast := Run(in, m, p, cfg)
		ref := runNaive(in, m, p, cfg)

		if !reflect.DeepEqual(fast.Added, ref.Added) {
			t.Fatalf("seed %d: cold-aware adds diverge: %v vs naive %v", seed, fast.Added, ref.Added)
		}
		if !reflect.DeepEqual(fast.Evicted, ref.Evicted) {
			t.Fatalf("seed %d: cold-aware evictions diverge: %v vs naive %v", seed, fast.Evicted, ref.Evicted)
		}
		if !reflect.DeepEqual(fast.Placement, ref.Placement) {
			t.Fatalf("seed %d: cold-aware repaired placements diverge", seed)
		}
		if fast.RolledBack != ref.RolledBack {
			t.Fatalf("seed %d: roll-back counts diverge: %d vs naive %d", seed, fast.RolledBack, ref.RolledBack)
		}
	}
}

// coldTieFixture is a symmetric substrate where restoring a crashed service
// onto node 1 and node 2 scores an exact tie: node 0 (the request home) lacks
// the storage, node 3 (the pre-fault host) is down, and nodes 1 and 2 are
// bitwise-interchangeable — same compute, same storage, same link rate to the
// home. The warm-blind engine resolves the tie first-wins to the lower node
// ID.
func coldTieFixture(t *testing.T) (*model.Instance, *chaos.Mask, model.Placement) {
	t.Helper()
	g := topology.New(4)
	g.AddNode(0, 0, 10, 5)   // node 0: home, too small to host the service
	g.AddNode(1, 0, 10, 50)  // node 1: tie candidate (lower ID)
	g.AddNode(-1, 0, 10, 50) // node 2: tie candidate (higher ID)
	g.AddNode(0, 1, 10, 50)  // node 3: pre-fault host, will crash
	for _, l := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}} {
		if err := g.AddLink(l[0], l[1], 2.0); err != nil {
			t.Fatal(err)
		}
	}
	g.Finalize()

	cat := msvc.NewCatalog()
	if _, err := cat.Add("svc", 10, 2, 10); err != nil {
		t.Fatal(err)
	}
	in := &model.Instance{
		Graph: g,
		Workload: &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
			{ID: 0, Home: 0, Chain: []int{0}, DataIn: 0.5, DataOut: 0.25, Deadline: 1e9},
		}},
		Lambda: 0.5,
		Budget: 100,
	}
	p := model.NewPlacement(cat.Len(), g.N())
	p.Set(0, 3, true)

	m := chaos.NewMask(g)
	if err := m.Apply(chaos.Event{Kind: chaos.NodeCrash, Node: 3}); err != nil {
		t.Fatal(err)
	}
	return in, m, p
}

// TestColdAwareWarmWinsTie: on the symmetric fixture the warm-blind engine
// restores onto node 1 (lowest ID wins the exact tie); with an instance
// ColdStartModel that marks node 2 warm and node 1 cold, the warm node wins
// the tie it previously lost — on both scorer paths.
func TestColdAwareWarmWinsTie(t *testing.T) {
	for _, naive := range []bool{false, true} {
		in, m, p := coldTieFixture(t)

		run := Run
		if naive {
			run = runNaive
		}
		cfg := Config{}
		blind := run(in, m, p, cfg)
		wantBlind := []chaos.Inst{{Svc: 0, Node: 1}}
		if !reflect.DeepEqual(blind.Added, wantBlind) {
			t.Fatalf("naive=%v: warm-blind adds = %v, want %v (fixture is not a tie?)", naive, blind.Added, wantBlind)
		}
		if blind.After.Unserved() != 0 {
			t.Fatalf("naive=%v: warm-blind repair left %d unserved", naive, blind.After.Unserved())
		}

		cs := model.NewColdStartModel(in.M(), in.V(), 0.75)
		for k := 0; k < in.V(); k++ {
			cs.SetCold(0, k, k != 2) // only node 2 is warm
		}
		in.ColdStart = cs
		warm := run(in, m, p, cfg)
		wantWarm := []chaos.Inst{{Svc: 0, Node: 2}}
		if !reflect.DeepEqual(warm.Added, wantWarm) {
			t.Fatalf("naive=%v: warm-aware adds = %v, want %v", naive, warm.Added, wantWarm)
		}
		if warm.After.Unserved() != 0 {
			t.Fatalf("naive=%v: warm-aware repair left %d unserved", naive, warm.After.Unserved())
		}
	}
}
