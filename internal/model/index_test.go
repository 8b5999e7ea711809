package model

import (
	"math"
	"testing"

	"repro/internal/msvc"
	"repro/internal/topology"
)

func indexTestInstance(t testing.TB, nodes, users int, seed int64) *Instance {
	t.Helper()
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(users), seed)
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
}

func densePlacement(in *Instance, seed int64) Placement {
	p := NewPlacement(in.M(), in.V())
	// Deterministic pseudo-random-ish pattern with multiple instances per
	// service.
	for i := 0; i < in.M(); i++ {
		for k := 0; k < in.V(); k++ {
			if (int64(i*31+k*17)+seed)%3 != 0 {
				p.Set(i, k, true)
			}
		}
		if p.Count(i) == 0 {
			p.Set(i, int(seed)%in.V(), true)
		}
	}
	return p
}

func TestPlacementIndexNodesOfTracksMutations(t *testing.T) {
	p := NewPlacement(3, 5)
	p.Set(0, 1, true)
	p.Set(0, 3, true)
	ix := NewPlacementIndex(p)
	got := ix.NodesOf(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("NodesOf(0) = %v, want [1 3]", got)
	}
	ix.Set(0, 2, true)
	ix.Set(0, 3, false)
	got = ix.NodesOf(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("after mutation NodesOf(0) = %v, want [1 2]", got)
	}
	if ix.Count(0) != 2 || !ix.Has(0, 2) || ix.Has(0, 3) {
		t.Fatal("Count/Has out of sync with mutations")
	}
	// Rebind to a fresh placement invalidates everything.
	q := NewPlacement(3, 5)
	q.Set(0, 4, true)
	ix.Rebind(q)
	got = ix.NodesOf(0)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("after Rebind NodesOf(0) = %v, want [4]", got)
	}
}

// Differential: routing over a PlacementIndex with reused scratch (what the
// delta evaluator runs) must be bit-identical to the naive allocating path,
// across placement mutations.
func TestRouteOptimalIndexedMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in := indexTestInstance(t, 10, 30, seed)
		p := densePlacement(in, seed)
		ix := NewPlacementIndex(p.Clone())
		sc := &RouteScratch{}
		check := func() {
			for h := range in.Workload.Requests {
				req := &in.Workload.Requests[h]
				a1, d1, err1 := in.RouteOptimal(req, ix.Placement())
				a2, d2, err2 := in.routeOptimal(req, ix, sc)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d req %d: err mismatch %v vs %v", seed, h, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if d1 != d2 {
					t.Fatalf("seed %d req %d: latency %v vs %v", seed, h, d1, d2)
				}
				for i := range a1.Nodes {
					if a1.Nodes[i] != a2.Nodes[i] {
						t.Fatalf("seed %d req %d: route %v vs %v", seed, h, a1.Nodes, a2.Nodes)
					}
				}
				g1, e1, gerr1 := in.RouteGreedy(req, ix.Placement())
				g2, e2, gerr2 := in.routeGreedy(req, ix)
				if (gerr1 == nil) != (gerr2 == nil) || (gerr1 == nil && e1 != e2) {
					t.Fatalf("seed %d req %d: greedy mismatch", seed, h)
				}
				_ = g1
				_ = g2
			}
		}
		check()
		// Mutate through the index and re-check: remove one instance of the
		// first multi-instance service, add one elsewhere.
		for i := 0; i < in.M(); i++ {
			nodes := append([]int(nil), ix.NodesOf(i)...)
			if len(nodes) < 2 {
				continue
			}
			ix.Set(i, nodes[0], false)
			if free := firstAbsent(ix, i, in.V()); free != -1 {
				ix.Set(i, free, true)
			}
			break
		}
		check()
	}
}

// Every Set and Rebind — and nothing else — must advance the epoch, and
// CheckCoherent must accept index-routed mutations while catching raw
// placement writes that bypass the index.
func TestPlacementIndexEpochAndCoherence(t *testing.T) {
	p := NewPlacement(3, 5)
	p.Set(0, 1, true)
	p.Set(1, 2, true)
	ix := NewPlacementIndex(p)
	if ix.Epoch() != 0 {
		t.Fatalf("fresh index epoch = %d, want 0", ix.Epoch())
	}
	for i := range p.X {
		ix.NodesOf(i) // build every cached list
	}
	if ix.Epoch() != 0 {
		t.Fatal("reads must not advance the epoch")
	}
	ix.Set(0, 3, true)
	if ix.Epoch() != 1 {
		t.Fatalf("epoch after one Set = %d, want 1", ix.Epoch())
	}
	ix.Set(0, 3, false)
	ix.Rebind(p)
	if ix.Epoch() != 3 {
		t.Fatalf("epoch after Set+Set+Rebind = %d, want 3", ix.Epoch())
	}

	for i := range p.X {
		ix.NodesOf(i) // Rebind dirtied every list
	}
	if err := ix.CheckCoherent(); err != nil {
		t.Fatalf("coherent index reported: %v", err)
	}
	// Mutations through the index stay coherent.
	ix.Set(1, 4, true)
	ix.NodesOf(1)
	if err := ix.CheckCoherent(); err != nil {
		t.Fatalf("after indexed Set: %v", err)
	}
	// A raw write behind the index's back — the PR-1 bug class — must be
	// caught: flip a bit in a clean row without touching the index.
	p.X[1][0] = true
	if err := ix.CheckCoherent(); err == nil {
		t.Fatal("CheckCoherent missed a raw placement write (extra node)")
	}
	p.X[1][0] = false
	p.X[1][4] = false // now the cached list has a stale extra entry
	if err := ix.CheckCoherent(); err == nil {
		t.Fatal("CheckCoherent missed a raw placement write (removed node)")
	}
	p.X[1][4] = true
	if err := ix.CheckCoherent(); err != nil {
		t.Fatalf("restored placement still reported: %v", err)
	}
	// Dirty rows are exempt: the next NodesOf rebuilds them.
	ix.Set(2, 0, true)
	p.X[2][1] = true
	if err := ix.CheckCoherent(); err != nil {
		t.Fatalf("dirty row must not be checked: %v", err)
	}
	_ = ix.NodesOf(2) // rebuild absorbs the raw write
	if err := ix.CheckCoherent(); err != nil {
		t.Fatalf("rebuilt row reported: %v", err)
	}
}

func firstAbsent(ix *PlacementIndex, i, v int) int {
	for k := 0; k < v; k++ {
		if !ix.Has(i, k) {
			return k
		}
	}
	return -1
}

// EvaluateRouted must be unchanged by the index-backed rewrite: spot-check
// the objective is finite and latencies equal per-request RouteOptimal.
func TestEvaluateRoutedUsesIndexConsistently(t *testing.T) {
	in := indexTestInstance(t, 10, 80, 3)
	p := densePlacement(in, 3)
	ev := in.Evaluate(p)
	if math.IsInf(ev.Objective, 1) {
		t.Fatal("unexpected infinite objective on dense placement")
	}
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		_, d, err := in.RouteOptimal(req, p)
		if err != nil {
			continue
		}
		if ev.Latencies[h] != d {
			t.Fatalf("req %d: evaluator latency %v != RouteOptimal %v", h, ev.Latencies[h], d)
		}
	}
}
