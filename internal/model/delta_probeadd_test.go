package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/msvc"
	"repro/internal/stats"
)

// summarizeAdd reads an AddProbe off a full evaluation: the reference the
// probes are held to.
func summarizeAdd(ev *Evaluation) AddProbe {
	pr := AddProbe{MissingInstances: ev.MissingInstances, Unroutable: ev.Unroutable,
		Cost: ev.Cost, OverBudget: ev.OverBudget}
	for _, lat := range ev.Latencies {
		if !math.IsInf(lat, 1) {
			pr.ServedLatencySum += lat
		}
	}
	return pr
}

func assertAddProbe(t *testing.T, label string, got, want AddProbe) {
	t.Helper()
	if got.MissingInstances != want.MissingInstances || got.Unroutable != want.Unroutable ||
		math.Float64bits(got.ServedLatencySum) != math.Float64bits(want.ServedLatencySum) ||
		math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.OverBudget != want.OverBudget {
		t.Fatalf("%s: ProbeAdd %+v, scratch %+v", label, got, want)
	}
}

// TestProbeAddMatchesScratch walks one evaluator through the shape of a
// repair — sparse placements with whole services missing, rounds of probes
// over every node, the best one committed, probes inside an open
// Apply/Revert window — on a substrate large enough that extended DP rows
// fall out of step and back, and checks every probe bit for bit against a
// scratch evaluation of the placement with the bits set.
func TestProbeAddMatchesScratch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cloud, cold bool
	}{{"plain", false, false}, {"cloud", true, false}, {"cold", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			in := indexTestInstance(t, 14, 60, 3)
			if tc.cloud {
				cc := DefaultCloudConfig()
				in.Cloud = &cc
			}
			if tc.cold {
				in.ColdStart = NewColdStartModel(in.M(), in.V(), 0.4)
				for i := 0; i < in.M(); i++ {
					in.ColdStart.SetCold(i, (3*i+1)%in.V(), true)
				}
			}
			r := stats.NewRand(stats.SplitSeed(11, "probe-add/"+tc.name))
			// Two thirds of the services on two or three nodes, the rest nowhere.
			p := NewPlacement(in.M(), in.V())
			for i := 0; i < in.M(); i++ {
				if i%3 == 2 {
					continue
				}
				for n := 2 + r.Intn(2); n > 0; n-- {
					p.Set(i, r.Intn(in.V()), true)
				}
			}
			de := NewDeltaEvaluator(in, p, RouteModeOptimal, 0)
			probe := func(label string, node int, svcs ...int) AddProbe {
				t.Helper()
				cf := de.Placement().Clone()
				for _, s := range svcs {
					cf.Set(s, node, true)
				}
				before, recomputed := de.ix.Epoch(), de.Recomputed
				got := de.ProbeAdd(node, svcs...)
				assertAddProbe(t, label, got, summarizeAdd(in.EvaluateRouted(cf, RouteModeOptimal, 0)))
				if de.ix.Epoch() != before {
					t.Fatalf("%s: ProbeAdd mutated the placement", label)
				}
				if (label == "single" || label == "bundle") && de.Recomputed != recomputed {
					t.Fatalf("%s: ProbeAdd re-routed %d cached requests", label, de.Recomputed-recomputed)
				}
				return got
			}
			probe("first", 0, 0)
			for round := 0; round < 6; round++ {
				// A sweep of single adds, then of bundles, as repair's two phases.
				best, bestSvc, bestNode := math.Inf(1), -1, -1
				for i := 0; i < in.M(); i++ {
					for k := 0; k < in.V(); k++ {
						pr := probe("single", k, i)
						if obj := in.Objective(pr.Cost, pr.ServedLatencySum) + 1e6*float64(pr.MissingInstances); obj < best {
							best, bestSvc, bestNode = obj, i, k
						}
					}
				}
				for k := 0; k < in.V(); k++ {
					h := r.Intn(len(in.Workload.Requests))
					probe("bundle", k, in.Workload.Requests[h].Chain...)
				}
				// Probes inside an open window see the window's placement.
				dl := de.Apply(r.Intn(in.M()), r.Intn(in.V()), true)
				probe("nested", r.Intn(in.V()), r.Intn(in.M()), r.Intn(in.M()))
				de.Revert(dl)
				// Commit the round's best, as a repair does, and drop one instance.
				de.Apply(bestSvc, bestNode, true)
				if i, k := r.Intn(in.M()), r.Intn(in.V()); de.Placement().Has(i, k) {
					de.Apply(i, k, false)
				}
				de.Eval()
			}
		})
	}
}

// TestProbeAddOtherModes: greedy and random routing answer through the
// mutate-and-revert path, and leave the evaluator as it was.
func TestProbeAddOtherModes(t *testing.T) {
	in := indexTestInstance(t, 9, 30, 4)
	for _, mode := range []RoutingMode{RouteModeGreedy, RouteModeRandom} {
		de := NewDeltaEvaluator(in, densePlacement(in, 2), mode, 5)
		before := de.Eval()
		for k := 0; k < in.V(); k++ {
			cf := de.Placement().Clone()
			cf.Set(1, k, true)
			cf.Set(2, k, true)
			assertAddProbe(t, mode.String(), de.ProbeAdd(k, 1, 2), summarizeAdd(in.EvaluateRouted(cf, mode, 5)))
		}
		assertEvalIdentical(t, mode.String()+"/after", de.Eval(), before)
	}
}

func BenchmarkProbeAdd(b *testing.B) {
	g := indexTestInstance(b, 60, 1000, 1)
	p := NewPlacement(g.M(), g.V())
	for i := 0; i < g.M(); i++ {
		for k := i % 5; k < g.V(); k += 5 {
			p.Set(i, k, true)
		}
	}
	de := NewDeltaEvaluator(g, p, RouteModeOptimal, 0)
	de.Eval()
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			de.ProbeAdd(n%g.V(), n%g.M())
		}
	})
	b.Run("apply-eval-revert", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			dl := de.Apply(n%g.M(), n%g.V(), true)
			de.Eval()
			de.Revert(dl)
		}
	})
}

// TestProbeAddMissingTwoServices: a request whose chain misses two services
// stays where it was — unserved, or on the cloud — under a probe that adds
// only one of them, and is routed by a bundle that adds both. Every probe
// equals Apply → Eval → Revert, and the request's own counterfactual equals
// its latency in that evaluation.
func TestProbeAddMissingTwoServices(t *testing.T) {
	for _, withCloud := range []bool{false, true} {
		in := indexTestInstance(t, 10, 40, 6)
		if withCloud {
			cc := DefaultCloudConfig()
			in.Cloud = &cc
		}
		h, s1, s2 := -1, -1, -1
		for i, req := range in.Workload.Requests {
			for _, a := range req.Chain {
				for _, b := range req.Chain {
					if a != b {
						h, s1, s2 = i, a, b
					}
				}
			}
			if h >= 0 {
				break
			}
		}
		if h < 0 {
			t.Fatal("no request chains two distinct services")
		}
		p := densePlacement(in, 3)
		for k := 0; k < in.V(); k++ {
			p.Set(s1, k, false)
			p.Set(s2, k, false)
		}
		de := NewDeltaEvaluator(in, p, RouteModeOptimal, 0)
		base := de.Eval()
		wantClass := addMissing
		if withCloud {
			wantClass = addCloud
		}
		// reference applies svcs on node, evaluates and reverts.
		reference := func(node int, svcs ...int) (AddProbe, float64) {
			var dls []*Delta
			for _, s := range svcs {
				dls = append(dls, de.Apply(s, node, true))
			}
			ev := de.Eval()
			pr, lat := summarizeAdd(ev), ev.Latencies[h]
			for j := len(dls) - 1; j >= 0; j-- {
				de.Revert(dls[j])
			}
			return pr, lat
		}
		for k := 0; k < in.V(); k++ {
			for _, one := range []int{s1, s2} {
				want, wantLat := reference(k, one)
				got := de.ProbeAdd(k, one)
				assertAddProbe(t, fmt.Sprintf("cloud=%v node %d adds %d", withCloud, k, one), got, want)
				st := &de.addProbe
				if st.class[h] != wantClass || !sameFloat(st.lat[h], base.Latencies[h]) || !sameFloat(wantLat, base.Latencies[h]) {
					t.Fatalf("cloud=%v node %d adds %d: request moved to %v (class %d), evaluation %v, was %v",
						withCloud, k, one, st.lat[h], st.class[h], wantLat, base.Latencies[h])
				}
			}
			want, wantLat := reference(k, s1, s2)
			got := de.ProbeAdd(k, s1, s2)
			assertAddProbe(t, fmt.Sprintf("cloud=%v node %d adds both", withCloud, k), got, want)
			if st := &de.addProbe; st.class[h] != addRouted || !sameFloat(st.lat[h], wantLat) {
				t.Fatalf("cloud=%v node %d adds both: request at %v (class %d), evaluation %v",
					withCloud, k, st.lat[h], st.class[h], wantLat)
			}
		}
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestDeployCostIncluding: counting instances reproduces DeployCost with the
// bits set, bitwise, on a catalog whose deploy costs are not integers, so
// that adding a gained κ out of service order would round differently.
func TestDeployCostIncluding(t *testing.T) {
	in := indexTestInstance(t, 9, 20, 2)
	cat := msvc.NewCatalog()
	for i := 0; i < in.M(); i++ {
		s := in.Workload.Catalog.Service(i)
		if _, err := cat.Add(s.Name, 0.1+float64(i)/3+1e-7*float64(i*i), s.Compute, s.Storage); err != nil {
			t.Fatal(err)
		}
	}
	w := *in.Workload
	w.Catalog = cat
	in.Workload = &w
	r := stats.NewRand(7)
	orderMatters := false
	for trial := 0; trial < 200; trial++ {
		p := NewPlacement(in.M(), in.V())
		for i := 0; i < in.M(); i++ {
			for k := 0; k < in.V(); k++ {
				if r.Intn(3) == 0 {
					p.Set(i, k, true)
				}
			}
		}
		de := NewDeltaEvaluator(in, p, RouteModeOptimal, 0)
		node := r.Intn(in.V())
		var gain []int
		for i := 0; i < in.M(); i++ {
			if !p.Has(i, node) && r.Intn(2) == 0 {
				gain = append(gain, i)
			}
		}
		q := p.Clone()
		for _, i := range gain {
			q.Set(i, node, true)
		}
		want := in.DeployCost(q)
		if got := de.deployCostIncluding(gain); !sameFloat(got, want) {
			t.Fatalf("trial %d: deployCostIncluding %v, DeployCost %v", trial, got, want)
		}
		appended := in.DeployCost(p)
		for _, i := range gain {
			appended += cat.Service(i).DeployCost
		}
		orderMatters = orderMatters || !sameFloat(appended, want)
	}
	if !orderMatters {
		t.Fatal("the catalog never makes summation order matter; the test checks nothing")
	}
}
