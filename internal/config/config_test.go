package config

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

func TestDefaultScenarioBuilds(t *testing.T) {
	sc := Default()
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.V() != 10 || len(in.Workload.Requests) != 40 {
		t.Fatalf("built %d nodes, %d users", in.V(), len(in.Workload.Requests))
	}
	// The default scenario must be solvable end to end.
	sol, err := core.Solve(in, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Evaluation.MissingInstances != 0 {
		t.Fatal("default scenario unsolvable")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sc := Default()
	sc.Name = "roundtrip"
	sc.Topology.Kind = "stadium"
	sc.Topology.Nodes = 12
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "roundtrip" || got.Topology.Kind != "stadium" || got.Topology.Nodes != 12 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	in1, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	in2, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in1.V() != in2.V() || len(in1.Workload.Requests) != len(in2.Workload.Requests) {
		t.Fatal("round-tripped scenario builds a different instance")
	}
}

// testdata/scenario_v1.json was written by Save before the workload and
// dataset blocks became msvc's own types. It must still load, build the
// instance its blocks describe, and save back to the same bytes.
func TestScenarioFileFormatIsStable(t *testing.T) {
	const path = "testdata/scenario_v1.json"
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	gcfg := topology.DefaultGenConfig()
	gcfg.ComputeMin, gcfg.ComputeMax = 8, 16
	gcfg.StorageMin, gcfg.StorageMax = 5, 9
	gcfg.RateMin, gcfg.RateMax = 25, 60
	g := topology.RandomGeometric(10, 0.35, gcfg, 7)
	cat := msvc.EShopCatalog(msvc.DatasetConfig{
		CostMin: 250, CostMax: 650,
		ComputeMin: 1.5, ComputeMax: 2.5,
		StorageMin: 1, StorageMax: 1.75,
	}, 7)
	wcfg := msvc.DefaultWorkloadConfig(24)
	wcfg.DeadlineSlack = 3
	w, err := msvc.GenerateWorkload(cat, g, wcfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := (&model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}); !reflect.DeepEqual(in, want) {
		t.Error("the fixture builds another instance than its blocks describe")
	}

	out := filepath.Join(t.TempDir(), "resaved.json")
	if err := sc.Save(out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-saved scenario differs from %s:\n%s", path, got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*Scenario){
		func(s *Scenario) { s.Lambda = 2 },
		func(s *Scenario) { s.Budget = 0 },
		func(s *Scenario) { s.Topology.Kind = "???" },
		func(s *Scenario) { s.Topology.Kind = "geometric"; s.Topology.Nodes = 0 },
		func(s *Scenario) { s.Topology.Kind = "grid"; s.Topology.Rows = 0 },
		func(s *Scenario) { s.Topology.Kind = "explicit"; s.Topology.NodeList = nil },
		func(s *Scenario) { s.Catalog.Kind = "???" },
		func(s *Scenario) { s.Catalog.Kind = "synthetic"; s.Catalog.NumServices = 1 },
		func(s *Scenario) { s.Catalog.Kind = "explicit" },
		func(s *Scenario) { s.Workload.NumUsers = -1 },
	}
	for i, mutate := range cases {
		sc := Default()
		mutate(sc)
		if err := sc.Validate(); err == nil {
			t.Fatalf("case %d: invalid scenario accepted", i)
		}
	}
}

func TestExplicitTopologyAndCatalog(t *testing.T) {
	sc := Default()
	sc.Topology = TopologySpec{
		Kind: "explicit",
		NodeList: []NodeSpec{
			{X: 0, Y: 0, Compute: 10, Storage: 20},
			{X: 1, Y: 0, Compute: 15, Storage: 20},
		},
		LinkList: []LinkSpec{{A: 0, B: 1, Rate: 40}},
	}
	sc.Catalog = CatalogSpec{
		Kind: "explicit",
		Services: []ServiceSpec{
			{Name: "auth", DeployCost: 300, Compute: 1, Storage: 1},
			{Name: "api", DeployCost: 400, Compute: 2, Storage: 1},
		},
		Flows: [][]string{{"auth", "api"}},
	}
	sc.Workload.NumUsers = 5
	sc.Workload.HotspotNodes = 2
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.V() != 2 || in.M() != 2 {
		t.Fatalf("explicit build: V=%d M=%d", in.V(), in.M())
	}
	sol, err := core.Solve(in, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Evaluation.Feasible() {
		t.Fatalf("explicit scenario infeasible: %+v", sol.Evaluation)
	}
}

func TestExplicitCatalogErrors(t *testing.T) {
	sc := Default()
	sc.Catalog = CatalogSpec{
		Kind:     "explicit",
		Services: []ServiceSpec{{Name: "a", DeployCost: 1, Compute: 1, Storage: 1}},
		Flows:    [][]string{{"a", "zzz"}},
	}
	if _, err := sc.Build(); err == nil {
		t.Fatal("unknown flow service accepted")
	}
	sc.Catalog.Flows = [][]string{{"a", "a"}}
	if _, err := sc.Build(); err == nil {
		t.Fatal("duplicate consecutive flow accepted")
	}
}

func TestExplicitTopologyLinkError(t *testing.T) {
	sc := Default()
	sc.Topology = TopologySpec{
		Kind:     "explicit",
		NodeList: []NodeSpec{{Compute: 10, Storage: 5}},
		LinkList: []LinkSpec{{A: 0, B: 7, Rate: 10}},
	}
	if _, err := sc.Build(); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestGenRangeOverride(t *testing.T) {
	sc := Default()
	sc.Topology.Gen = &GenRanges{
		ComputeMin: 50, ComputeMax: 60,
		StorageMin: 9, StorageMax: 10,
		RateMin: 5, RateMax: 6,
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range in.Graph.Nodes() {
		if n.Compute < 50 || n.Compute > 60 {
			t.Fatalf("compute %v outside override", n.Compute)
		}
	}
}

func TestAllGeneratorKinds(t *testing.T) {
	for _, kind := range []string{"geometric", "stadium", "ringhubs", "grid"} {
		sc := Default()
		sc.Topology.Kind = kind
		sc.Topology.Nodes = 12
		sc.Topology.Rows, sc.Topology.Cols = 3, 4
		in, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if in.V() == 0 {
			t.Fatalf("%s: empty graph", kind)
		}
	}
}
