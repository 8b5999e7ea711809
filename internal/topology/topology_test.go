package topology

import (
	"math"
	"testing"
	"testing/quick"
)

// line builds a 4-node path graph 0-1-2-3 with known rates.
func line(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0, 10, 5)
	}
	mustLink(t, g, 0, 1, 10) // cost 0.1 /GB
	mustLink(t, g, 1, 2, 20) // cost 0.05
	mustLink(t, g, 2, 3, 40) // cost 0.025
	g.Finalize()
	return g
}

func mustLink(t *testing.T, g *Graph, a, b NodeID, rate float64) {
	t.Helper()
	if err := g.AddLink(a, b, rate); err != nil {
		t.Fatalf("AddLink(%d,%d): %v", a, b, err)
	}
}

func TestShannonRate(t *testing.T) {
	// B=10, SNR=3 → 10·log2(4) = 20.
	if got := ShannonRate(10, 1, 3, 1); math.Abs(got-20) > 1e-9 {
		t.Fatalf("ShannonRate = %v, want 20", got)
	}
	if ShannonRate(0, 1, 3, 1) != 0 {
		t.Fatal("zero bandwidth should give zero rate")
	}
	if ShannonRate(10, 1, 3, 0) != 0 {
		t.Fatal("zero noise should give zero rate (guard)")
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := New(2)
	g.AddNode(0, 0, 1, 1)
	g.AddNode(1, 0, 1, 1)
	if err := g.AddLink(0, 0, 5); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddLink(0, 7, 5); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := g.AddLink(0, 1, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := g.AddLink(0, 1, -3); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestAddLinkUpdateExisting(t *testing.T) {
	g := New(2)
	g.AddNode(0, 0, 1, 1)
	g.AddNode(1, 0, 1, 1)
	mustLink(t, g, 0, 1, 10)
	mustLink(t, g, 1, 0, 25) // update via reversed order
	g.Finalize()
	if r, ok := g.LinkRate(0, 1); !ok || r != 25 {
		t.Fatalf("LinkRate = %v,%v want 25,true", r, ok)
	}
	if len(g.Links()) != 1 {
		t.Fatalf("duplicate link stored: %v", g.Links())
	}
	if got := g.PathCost(0, 1); math.Abs(got-1.0/25) > 1e-12 {
		t.Fatalf("PathCost after update = %v", got)
	}
}

func TestPathCostLine(t *testing.T) {
	g := line(t)
	want := 0.1 + 0.05 + 0.025
	if got := g.PathCost(0, 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PathCost(0,3) = %v, want %v", got, want)
	}
	if got := g.PathCost(3, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PathCost symmetric: %v", got)
	}
	if g.PathCost(2, 2) != 0 {
		t.Fatal("PathCost(self) != 0")
	}
}

func TestVirtualSpeedHarmonicMean(t *testing.T) {
	g := line(t)
	// 𝔹 = 1/(1/10+1/20+1/40) = 1/0.175
	want := 1 / 0.175
	if got := g.VirtualSpeed(0, 3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("VirtualSpeed = %v, want %v", got, want)
	}
	if !math.IsInf(g.VirtualSpeed(1, 1), 1) {
		t.Fatal("self virtual speed should be +Inf")
	}
}

func TestTransferTime(t *testing.T) {
	g := line(t)
	if got := g.TransferTime(0, 1, 5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("TransferTime = %v, want 0.5", got)
	}
	if g.TransferTime(2, 2, 100) != 0 {
		t.Fatal("self transfer should cost 0")
	}
}

func TestHopsAndHopPathCost(t *testing.T) {
	// Square with a shortcut: 0-1 (fast), 1-3 (fast), 0-2 (slow), 2-3 (slow),
	// plus direct 0-3 very slow. Min-hop 0→3 is the direct link (1 hop),
	// min-time is 0-1-3.
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(0, 0, 1, 1)
	}
	mustLink(t, g, 0, 1, 100)
	mustLink(t, g, 1, 3, 100)
	mustLink(t, g, 0, 2, 10)
	mustLink(t, g, 2, 3, 10)
	mustLink(t, g, 0, 3, 1)
	g.Finalize()
	if got := g.Hops(0, 3); got != 1 {
		t.Fatalf("Hops(0,3) = %d, want 1", got)
	}
	if got := g.HopPathCost(0, 3); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("HopPathCost(0,3) = %v, want 1.0", got)
	}
	if got := g.PathCost(0, 3); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("PathCost(0,3) = %v, want 0.02 (via node 1)", got)
	}
}

func TestHopTieBreakPrefersFasterPath(t *testing.T) {
	// Two 2-hop paths 0-1-3 (fast) and 0-2-3 (slow): hop cost should pick
	// the fast one.
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(0, 0, 1, 1)
	}
	mustLink(t, g, 0, 1, 100)
	mustLink(t, g, 1, 3, 100)
	mustLink(t, g, 0, 2, 10)
	mustLink(t, g, 2, 3, 10)
	g.Finalize()
	if got := g.Hops(0, 3); got != 2 {
		t.Fatalf("Hops = %d", got)
	}
	if got := g.HopPathCost(0, 3); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("HopPathCost = %v, want 0.02", got)
	}
}

func TestPathReconstruction(t *testing.T) {
	g := line(t)
	p := g.Path(0, 3)
	want := []NodeID{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("Path = %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("Path = %v, want %v", p, want)
		}
	}
	if p := g.Path(2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path = %v", p)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(3)
	g.AddNode(0, 0, 1, 1)
	g.AddNode(1, 0, 1, 1)
	g.AddNode(2, 0, 1, 1)
	mustLink(t, g, 0, 1, 10)
	g.Finalize()
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
	if !math.IsInf(g.PathCost(0, 2), 1) {
		t.Fatal("PathCost to unreachable should be +Inf")
	}
	if g.Hops(0, 2) != -1 {
		t.Fatal("Hops to unreachable should be -1")
	}
	if g.Path(0, 2) != nil {
		t.Fatal("Path to unreachable should be nil")
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("Components = %v", comps)
	}
}

func TestQueryBeforeFinalizePanics(t *testing.T) {
	g := New(2)
	g.AddNode(0, 0, 1, 1)
	g.AddNode(1, 0, 1, 1)
	mustLink(t, g, 0, 1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("PathCost before Finalize did not panic")
		}
	}()
	g.PathCost(0, 1)
}

func TestDegreeNeighbors(t *testing.T) {
	g := line(t)
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("Degrees = %d,%d", g.Degree(1), g.Degree(0))
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 {
		t.Fatalf("Neighbors(1) = %v", nb)
	}
}

func TestTotalStorage(t *testing.T) {
	g := line(t)
	if got := g.TotalStorage(); got != 20 {
		t.Fatalf("TotalStorage = %v, want 20", got)
	}
}

func TestGeneratorsConnectedAndInRange(t *testing.T) {
	cfg := DefaultGenConfig()
	cases := []struct {
		name string
		g    *Graph
	}{
		{"geometric", RandomGeometric(25, 0.25, cfg, 1)},
		{"ringhubs", RingHubs(12, 3, cfg, 2)},
		{"grid", Grid(4, 5, cfg, 3)},
		{"stadium", Stadium(14, cfg, 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.g.Connected() {
				t.Fatal("generated graph disconnected")
			}
			for _, n := range c.g.Nodes() {
				if n.Compute < cfg.ComputeMin-1e-9 || n.Compute > cfg.ComputeMax+1e-9 {
					t.Fatalf("compute %v out of range", n.Compute)
				}
				if n.Storage < cfg.StorageMin-1e-9 || n.Storage > cfg.StorageMax+1e-9 {
					t.Fatalf("storage %v out of range", n.Storage)
				}
			}
			for _, l := range c.g.Links() {
				if l.Rate < cfg.RateMin-1e-6 || l.Rate > cfg.RateMax+1e-6 {
					t.Fatalf("link rate %v out of range [%v,%v]", l.Rate, cfg.RateMin, cfg.RateMax)
				}
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomGeometric(15, 0.3, DefaultGenConfig(), 99)
	b := RandomGeometric(15, 0.3, DefaultGenConfig(), 99)
	if a.N() != b.N() || len(a.Links()) != len(b.Links()) {
		t.Fatal("same seed produced different graphs")
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if math.Abs(a.PathCost(i, j)-b.PathCost(i, j)) > 1e-12 {
				t.Fatalf("path costs differ at (%d,%d)", i, j)
			}
		}
	}
}

func TestStadiumMinimumSize(t *testing.T) {
	g := Stadium(2, DefaultGenConfig(), 5) // clamped to 6
	if g.N() != 6 {
		t.Fatalf("Stadium(2) nodes = %d, want clamp to 6", g.N())
	}
	if !g.Connected() {
		t.Fatal("stadium disconnected")
	}
}

// Property: PathCost satisfies the triangle inequality and symmetry on
// random connected graphs.
func TestPathCostMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGeometric(12, 0.3, DefaultGenConfig(), seed)
		for a := 0; a < g.N(); a++ {
			for b := 0; b < g.N(); b++ {
				if math.Abs(g.PathCost(a, b)-g.PathCost(b, a)) > 1e-9 {
					return false
				}
				for c := 0; c < g.N(); c++ {
					if g.PathCost(a, b) > g.PathCost(a, c)+g.PathCost(c, b)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: the minimum-hop path never has more hops than the minimum-time
// path, and virtual speed is within [min link rate, max link rate] of the
// graph for connected pairs.
func TestHopAndSpeedBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGeometric(10, 0.35, DefaultGenConfig(), seed)
		minRate, maxRate := math.Inf(1), 0.0
		for _, l := range g.Links() {
			minRate = math.Min(minRate, l.Rate)
			maxRate = math.Max(maxRate, l.Rate)
		}
		for a := 0; a < g.N(); a++ {
			for b := 0; b < g.N(); b++ {
				if a == b {
					continue
				}
				if len(g.Path(a, b))-1 < g.Hops(a, b) {
					return false
				}
				v := g.VirtualSpeed(a, b)
				if v > maxRate+1e-6 {
					return false // can't beat the best single link
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryOutOfRangePanics(t *testing.T) {
	g := line(t)
	for _, q := range []struct {
		name string
		fn   func()
	}{
		{"PathCost(0,4)", func() { g.PathCost(0, 4) }},
		{"PathCost(4,0)", func() { g.PathCost(4, 0) }},
		{"Hops(0,-1)", func() { g.Hops(0, -1) }},
		{"HopPathCost(-1,0)", func() { g.HopPathCost(-1, 0) }},
		{"Path(0,4)", func() { g.Path(0, 4) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", q.name)
				}
			}()
			q.fn()
		}()
	}
}
