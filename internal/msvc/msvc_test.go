package msvc

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestCatalogAddAndLookup(t *testing.T) {
	c := NewCatalog()
	id, err := c.Add("a", 100, 2, 1)
	if err != nil || id != 0 {
		t.Fatalf("Add = %d,%v", id, err)
	}
	if _, err := c.Add("a", 100, 2, 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := c.Add("b", 0, 2, 1); err == nil {
		t.Fatal("zero cost accepted")
	}
	if got, ok := c.Lookup("a"); !ok || got != 0 {
		t.Fatalf("Lookup = %d,%v", got, ok)
	}
	if _, ok := c.Lookup("zzz"); ok {
		t.Fatal("unknown lookup succeeded")
	}
}

func TestCatalogDependencies(t *testing.T) {
	c := NewCatalog()
	a, _ := c.Add("a", 1, 1, 1)
	b, _ := c.Add("b", 1, 1, 1)
	if err := c.AddDependency(a, b); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDependency(a, a); err == nil {
		t.Fatal("self-dependency accepted")
	}
	if err := c.AddDependency(a, 99); err == nil {
		t.Fatal("out-of-range dependency accepted")
	}
	if deps := c.deps[a]; len(deps) != 1 || deps[0] != b {
		t.Fatalf("dependencies of a = %v", deps)
	}
}

func TestCatalogFlows(t *testing.T) {
	c := NewCatalog()
	a, _ := c.Add("a", 1, 1, 1)
	b, _ := c.Add("b", 1, 1, 1)
	if err := c.AddFlow(nil); err == nil {
		t.Fatal("empty flow accepted")
	}
	if err := c.AddFlow([]ServiceID{a, a}); err == nil {
		t.Fatal("consecutive duplicate accepted")
	}
	if err := c.AddFlow([]ServiceID{a, 42}); err == nil {
		t.Fatal("unknown service accepted")
	}
	if err := c.AddFlow([]ServiceID{a, b}); err != nil {
		t.Fatal(err)
	}
	flows := c.Flows()
	flows[0][0] = 999 // mutation must not leak into the catalog
	if c.Flows()[0][0] != a {
		t.Fatal("Flows returned aliased storage")
	}
}

func TestEShopCatalogShape(t *testing.T) {
	c := EShopCatalog(DefaultDatasetConfig(), 1)
	if c.Len() != 12 {
		t.Fatalf("eShop services = %d, want 12", c.Len())
	}
	if len(c.Flows()) != 10 {
		t.Fatalf("eShop flows = %d, want 10", len(c.Flows()))
	}
	cfg := DefaultDatasetConfig()
	for _, m := range c.Services() {
		if m.DeployCost < cfg.CostMin || m.DeployCost > cfg.CostMax {
			t.Fatalf("cost %v out of range", m.DeployCost)
		}
		if m.Compute < cfg.ComputeMin || m.Compute > cfg.ComputeMax {
			t.Fatalf("compute %v out of range", m.Compute)
		}
		if m.Storage < cfg.StorageMin || m.Storage > cfg.StorageMax {
			t.Fatalf("storage %v out of range", m.Storage)
		}
	}
	// Identity is the entry service of most flows.
	id, ok := c.Lookup("identity-api")
	if !ok {
		t.Fatal("identity-api missing")
	}
	entries := 0
	for _, f := range c.Flows() {
		if f[0] == id {
			entries++
		}
	}
	if entries < 7 {
		t.Fatalf("identity-api starts only %d flows", entries)
	}
}

func TestEShopCatalogDeterministic(t *testing.T) {
	a := EShopCatalog(DefaultDatasetConfig(), 7)
	b := EShopCatalog(DefaultDatasetConfig(), 7)
	for i := 0; i < a.Len(); i++ {
		if a.Service(i) != b.Service(i) {
			t.Fatalf("service %d differs across same-seed builds", i)
		}
	}
	c := EShopCatalog(DefaultDatasetConfig(), 8)
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.Service(i) != c.Service(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical parameters")
	}
}

func TestSyntheticCatalog(t *testing.T) {
	c := SyntheticCatalog(20, DefaultDatasetConfig(), 3)
	if c.Len() != 20 {
		t.Fatalf("Len = %d", c.Len())
	}
	if len(c.Flows()) == 0 {
		t.Fatal("no flows generated")
	}
	// Dependencies must point to higher IDs (layered DAG → acyclic).
	for i := 0; i < c.Len(); i++ {
		for _, d := range c.deps[i] {
			if d <= i {
				t.Fatalf("dependency %d → %d is not forward", i, d)
			}
		}
	}
	if SyntheticCatalog(0, DefaultDatasetConfig(), 1).Len() != 2 {
		t.Fatal("n<2 not clamped")
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{ID: 0, Home: 0, Chain: []ServiceID{0, 1}, EdgeData: []float64{1}, DataIn: 1, DataOut: 1}
	if err := good.Validate(2, 1); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []Request{
		{ID: 1, Home: 0, Chain: nil},
		{ID: 2, Home: 5, Chain: []ServiceID{0}, EdgeData: nil},
		{ID: 3, Home: 0, Chain: []ServiceID{0, 1}, EdgeData: nil},
		{ID: 4, Home: 0, Chain: []ServiceID{0, 9}, EdgeData: []float64{1}},
		{ID: 5, Home: 0, Chain: []ServiceID{0}, EdgeData: nil, DataIn: -1},
		{ID: 6, Home: 0, Chain: []ServiceID{0, 1}, EdgeData: []float64{-2}},
	}
	for _, r := range bad {
		if err := r.Validate(2, 1); err == nil {
			t.Fatalf("invalid request %d accepted", r.ID)
		}
	}
}

func TestRequestUsesPosition(t *testing.T) {
	r := Request{Chain: []ServiceID{3, 1, 4}}
	if !r.Uses(1) || r.Uses(9) {
		t.Fatal("Uses wrong")
	}
	if r.Position(3) != "first" || r.Position(1) != "mid" || r.Position(4) != "last" || r.Position(9) != "" {
		t.Fatalf("Position wrong: %s %s %s %s", r.Position(3), r.Position(1), r.Position(4), r.Position(9))
	}
}

func testGraph() *topology.Graph {
	return topology.RandomGeometric(8, 0.4, topology.DefaultGenConfig(), 11)
}

func TestGenerateWorkloadBasic(t *testing.T) {
	cat := EShopCatalog(DefaultDatasetConfig(), 1)
	g := testGraph()
	w, err := GenerateWorkload(cat, g, DefaultWorkloadConfig(30), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Requests) != 30 {
		t.Fatalf("requests = %d", len(w.Requests))
	}
	cfg := DefaultWorkloadConfig(30)
	for _, r := range w.Requests {
		if err := r.Validate(cat.Len(), g.N()); err != nil {
			t.Fatal(err)
		}
		for _, d := range r.EdgeData {
			if d < cfg.EdgeDataMin || d > cfg.EdgeDataMax {
				t.Fatalf("edge data %v out of range", d)
			}
		}
		if r.Deadline <= 0 || math.IsInf(r.Deadline, 1) {
			t.Fatalf("deadline %v not finite positive", r.Deadline)
		}
	}
}

func TestGenerateWorkloadErrors(t *testing.T) {
	g := testGraph()
	if _, err := GenerateWorkload(NewCatalog(), g, DefaultWorkloadConfig(5), 1); err == nil {
		t.Fatal("empty catalog accepted")
	}
	c := NewCatalog()
	c.Add("a", 1, 1, 1)
	if _, err := GenerateWorkload(c, g, DefaultWorkloadConfig(5), 1); err == nil {
		t.Fatal("flowless catalog accepted")
	}
	cat := EShopCatalog(DefaultDatasetConfig(), 1)
	cfg := DefaultWorkloadConfig(-1)
	if _, err := GenerateWorkload(cat, g, cfg, 1); err == nil {
		t.Fatal("negative user count accepted")
	}
}

func TestGenerateWorkloadNoDeadline(t *testing.T) {
	cat := EShopCatalog(DefaultDatasetConfig(), 1)
	cfg := DefaultWorkloadConfig(5)
	cfg.DeadlineSlack = 0
	w, err := GenerateWorkload(cat, testGraph(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Requests {
		if !math.IsInf(r.Deadline, 1) {
			t.Fatalf("deadline should be +Inf, got %v", r.Deadline)
		}
	}
}

func TestWorkloadQueries(t *testing.T) {
	cat := EShopCatalog(DefaultDatasetConfig(), 1)
	g := testGraph()
	w, err := GenerateWorkload(cat, g, DefaultWorkloadConfig(50), 9)
	if err != nil {
		t.Fatal(err)
	}
	// DemandCount consistency with NodesRequesting.
	for _, s := range w.ServicesUsed() {
		nodes := w.NodesRequesting(s)
		for i := 1; i < len(nodes); i++ {
			if nodes[i] <= nodes[i-1] {
				t.Fatal("NodesRequesting not sorted")
			}
		}
		sum := 0
		for k := 0; k < g.N(); k++ {
			c := w.DemandCount(k, s)
			if c > 0 {
				found := false
				for _, n := range nodes {
					if n == k {
						found = true
					}
				}
				if !found {
					t.Fatalf("node %d has demand for %d but missing from NodesRequesting", k, s)
				}
			}
			sum += c
		}
		if sum == 0 {
			t.Fatalf("service %d marked used but has zero demand", s)
		}
	}
}

func TestWorkloadHotspotConcentration(t *testing.T) {
	cat := EShopCatalog(DefaultDatasetConfig(), 1)
	g := testGraph()
	cfg := DefaultWorkloadConfig(400)
	cfg.Hotspot = 0.9
	cfg.HotspotNodes = 2
	w, err := GenerateWorkload(cat, g, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	inHot := 0
	for _, r := range w.Requests {
		if r.Home < 2 {
			inHot++
		}
	}
	if float64(inHot)/400 < 0.7 {
		t.Fatalf("hotspot fraction %v too low for Hotspot=0.9", float64(inHot)/400)
	}
}

// Property: generated workloads are structurally valid and deterministic for
// any seed.
func TestGenerateWorkloadProperty(t *testing.T) {
	cat := EShopCatalog(DefaultDatasetConfig(), 1)
	g := testGraph()
	f := func(seed int64) bool {
		w1, err1 := GenerateWorkload(cat, g, DefaultWorkloadConfig(20), seed)
		w2, err2 := GenerateWorkload(cat, g, DefaultWorkloadConfig(20), seed)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range w1.Requests {
			a, b := w1.Requests[i], w2.Requests[i]
			if a.Home != b.Home || len(a.Chain) != len(b.Chain) || a.DataIn != b.DataIn {
				return false
			}
			if a.Validate(cat.Len(), g.N()) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
