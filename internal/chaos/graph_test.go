package chaos

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// incrementalMaskGraph is Mask.Graph's masked substrate built one AddNode and
// one AddLink at a time, in the mask's canonical link order.
func incrementalMaskGraph(t *testing.T, m *Mask) *topology.Graph {
	t.Helper()
	g := topology.New(m.base.N())
	for k := 0; k < m.base.N(); k++ {
		n := m.base.Node(k)
		g.AddNode(n.X, n.Y, n.Compute, n.Storage*m.storScale[k])
	}
	for i, l := range m.links {
		if m.down[l.A] || m.down[l.B] {
			continue
		}
		if err := g.AddLink(l.A, l.B, l.Rate*m.linkScale[i]); err != nil {
			t.Fatal(err)
		}
	}
	g.Finalize()
	return g
}

// TestMaskGraphMatchesIncremental replays a generated schedule of node,
// link and storage faults and holds every slot's masked graph against the
// incremental build, bitwise, for every node pair.
func TestMaskGraphMatchesIncremental(t *testing.T) {
	g := topology.RandomGeometric(24, 0.4, topology.DefaultGenConfig(), 5)
	cfg := DefaultScheduleConfig()
	cfg.NodeFailProb, cfg.LinkFailProb, cfg.MinNodesUp = 0.15, 0.1, 12
	sched := Generate(g, 30, cfg, 9)
	m := NewMask(g)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for slot := 0; slot < sched.NumSlots; slot++ {
		for _, ev := range sched.At(slot) {
			if err := m.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		got, want := m.Graph(), incrementalMaskGraph(t, m)
		for a := 0; a < g.N(); a++ {
			if got.Node(a) != want.Node(a) || got.Degree(a) != want.Degree(a) {
				t.Fatalf("slot %d: node %d differs", slot, a)
			}
			for b := 0; b < g.N(); b++ {
				if !same(got.PathCost(a, b), want.PathCost(a, b)) || got.Hops(a, b) != want.Hops(a, b) ||
					!same(got.HopPathCost(a, b), want.HopPathCost(a, b)) {
					t.Fatalf("slot %d: tables differ at (%d,%d)", slot, a, b)
				}
				ra, oka := got.LinkRate(a, b)
				rb, okb := want.LinkRate(a, b)
				if oka != okb || !same(ra, rb) {
					t.Fatalf("slot %d: LinkRate(%d,%d) %v/%v, want %v/%v", slot, a, b, ra, oka, rb, okb)
				}
			}
		}
	}
}

// maskGraphAllocs counts what one masked rebuild allocates on an n-node
// substrate as dense as serve_churn's (24 nodes, radius 0.4: the radius
// shrinks with √n): each run toggles a crash of one node while another stays
// down, so every Graph call rebuilds.
func maskGraphAllocs(t testing.TB, n int) float64 {
	g := topology.RandomGeometric(n, 0.4*math.Sqrt(24/float64(n)), topology.DefaultGenConfig(), 3)
	m := NewMask(g)
	if err := m.Apply(Event{Kind: NodeCrash, Node: 0}); err != nil {
		t.Fatal(err)
	}
	kind := NodeCrash
	return testing.AllocsPerRun(50, func() {
		if err := m.Apply(Event{Kind: kind, Node: 1}); err != nil {
			t.Fatal(err)
		}
		kind ^= NodeCrash ^ NodeRecover
		m.Graph()
	})
}

// maskGraphAllocsMax is what a masked rebuild allocates: the graph, its node
// list, adjacency headers, degree counts and edge array, the rate map, the
// four path tables and Finalize's four scratch slices — none of them per
// node or per row. (The rate map's own count grows past a thousand links,
// which is why the 96-node substrate keeps serve_churn's density.)
const maskGraphAllocsMax = 17

// TestMaskGraphAllocs gates the masked rebuild's allocations: the same small
// constant at 24 and at 96 nodes.
func TestMaskGraphAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{24, 96} {
		a := maskGraphAllocs(t, n)
		t.Logf("%d nodes: %v allocations a masked rebuild", n, a)
		if a > maskGraphAllocsMax {
			t.Fatalf("a masked rebuild of %d nodes allocates %v times, want at most %d", n, a, maskGraphAllocsMax)
		}
		counts = append(counts, a)
	}
	if counts[0] != counts[1] {
		t.Fatalf("a masked rebuild allocates %v times at 24 nodes but %v at 96", counts[0], counts[1])
	}
}

// BenchmarkMaskGraph: one masked rebuild of serve_churn's 24-node substrate.
func BenchmarkMaskGraph(b *testing.B) {
	g := topology.RandomGeometric(24, 0.4, topology.DefaultGenConfig(), 3)
	m := NewMask(g)
	if err := m.Apply(Event{Kind: NodeCrash, Node: 0}); err != nil {
		b.Fatal(err)
	}
	kind := NodeCrash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Apply(Event{Kind: kind, Node: 1}); err != nil {
			b.Fatal(err)
		}
		kind ^= NodeCrash ^ NodeRecover
		m.Graph()
	}
}
