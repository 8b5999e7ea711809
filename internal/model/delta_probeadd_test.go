package model

import (
	"math"
	"testing"

	"repro/internal/stats"
)

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
