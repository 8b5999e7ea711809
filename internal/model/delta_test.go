package model

import (
	"math"
	"strings"
	"testing"

	"repro/internal/msvc"
	"repro/internal/stats"
	"repro/internal/topology"
)

// assertEvalIdentical compares a delta evaluation against a from-scratch one
// bit for bit: scalars, counters, per-request latencies and assignments.
func assertEvalIdentical(t testing.TB, label string, got, want *Evaluation) {
	t.Helper()
	if got.Objective != want.Objective || got.LatencySum != want.LatencySum || got.Cost != want.Cost {
		t.Fatalf("%s: scalars diverge: objective %v/%v latency %v/%v cost %v/%v",
			label, got.Objective, want.Objective, got.LatencySum, want.LatencySum, got.Cost, want.Cost)
	}
	if got.MissingInstances != want.MissingInstances || got.Unroutable != want.Unroutable || got.CloudServed != want.CloudServed ||
		got.DeadlineViolated != want.DeadlineViolated || got.StorageViolatedAt != want.StorageViolatedAt ||
		got.OverBudget != want.OverBudget {
		t.Fatalf("%s: counters diverge: %+v vs %+v", label, countersOf(got), countersOf(want))
	}
	for h := range want.Routes {
		gl, wl := got.Latencies[h], want.Latencies[h]
		if gl != wl && !(math.IsInf(gl, 1) && math.IsInf(wl, 1)) {
			t.Fatalf("%s: request %d latency %v != %v", label, h, gl, wl)
		}
		a, b := got.Routes[h].Nodes, want.Routes[h].Nodes
		if len(a) != len(b) {
			t.Fatalf("%s: request %d route %v != %v", label, h, a, b)
		}
		for s := range a {
			if a[s] != b[s] {
				t.Fatalf("%s: request %d route %v != %v", label, h, a, b)
			}
		}
	}
}

// TestDeltaEvaluatorMatchesEvaluateRouted walks seeded random mutation
// sequences — removals, additions, probe-style apply/eval/revert — under all
// three routing modes and asserts every Eval is bit-identical to evaluating
// the live placement from scratch.
func TestDeltaEvaluatorMatchesEvaluateRouted(t *testing.T) {
	modes := []RoutingMode{RouteModeOptimal, RouteModeGreedy, RouteModeRandom}
	for _, mode := range modes {
		for seed := int64(1); seed <= 3; seed++ {
			in := indexTestInstance(t, 9, 40, seed)
			p := densePlacement(in, seed)
			de := NewDeltaEvaluator(in, p.Clone(), mode, seed)
			r := stats.NewRand(stats.SplitSeed(seed, "delta-walk/"+mode.String()))

			check := func(label string) {
				got := de.Eval()
				want := in.EvaluateRouted(de.Placement(), mode, seed)
				assertEvalIdentical(t, mode.String()+"/"+label, got, want)
			}
			check("initial")
			for step := 0; step < 30; step++ {
				svc := r.Intn(in.M())
				k := r.Intn(in.V())
				switch step % 3 {
				case 0: // permanent flip
					de.Apply(svc, k, !de.Placement().Has(svc, k))
					check("flip")
				case 1: // removal probe with revert, as GC-OG runs it
					nodes := de.Placement().NodesOf(svc)
					if len(nodes) == 0 {
						continue
					}
					before := de.Eval()
					dl := de.Apply(svc, nodes[r.Intn(len(nodes))], false)
					check("probe")
					de.Revert(dl)
					check("reverted")
					after := de.Eval()
					assertEvalIdentical(t, mode.String()+"/revert-roundtrip", after, before)
				case 2: // addition
					de.Apply(svc, k, true)
					check("add")
				}
			}
		}
	}
}

// TestDeltaEvaluatorAdvanceTo drives the sweep entry point: jumping between
// unrelated placements must still evaluate exactly, and a jump to an
// adjacent placement must not re-route untouched requests.
func TestDeltaEvaluatorAdvanceTo(t *testing.T) {
	in := indexTestInstance(t, 10, 50, 3)
	a := densePlacement(in, 3)
	b := densePlacement(in, 7)
	de := NewDeltaEvaluator(in, a.Clone(), RouteModeOptimal, 0)
	de.Eval()

	if changed := de.AdvanceTo(b); changed == 0 {
		t.Fatal("distinct placements advanced with zero changes")
	}
	assertEvalIdentical(t, "jump", de.Eval(), in.EvaluateRouted(b, RouteModeOptimal, 0))

	// Adjacent step: flip one instance of one service; only its users may be
	// re-routed.
	c := b.Clone()
	var svc int
	for svc = 0; svc < in.M(); svc++ {
		if c.Count(svc) > 1 {
			break
		}
	}
	c.Set(svc, c.NodesOf(svc)[0], false)
	recomputedBefore := de.Recomputed
	de.AdvanceTo(c)
	assertEvalIdentical(t, "adjacent", de.Eval(), in.EvaluateRouted(c, RouteModeOptimal, 0))
	if delta := de.Recomputed - recomputedBefore; delta > len(in.Workload.Requests)/2 {
		t.Fatalf("adjacent advance re-routed %d of %d requests; expected a minority",
			delta, len(in.Workload.Requests))
	}
}

// TestDeltaEvaluatorRepublish pins when Eval may return the previous call's
// evaluation: with nothing moved it does, counted as a refresh that found
// nothing dirty, and so after an AdvanceTo that changes nothing; after each
// stamp mover — Lambda, Budget, Apply, Apply then Revert, AdvanceTo with a
// change, Rebind, EditRequests — it builds a fresh one, equal to a scratch
// evaluation.
func TestDeltaEvaluatorRepublish(t *testing.T) {
	in := indexTestInstance(t, 9, 40, 4)
	n := len(in.Workload.Requests)
	de := NewDeltaEvaluator(in, densePlacement(in, 4).Clone(), RouteModeOptimal, 0)
	prev := de.Eval()
	republished := func(label string) {
		t.Helper()
		hits, recomputed := de.Hits, de.Recomputed
		if de.Eval() != prev {
			t.Fatalf("%s: nothing moved, yet Eval built a new evaluation", label)
		}
		if de.Hits != hits+n || de.Recomputed != recomputed {
			t.Fatalf("%s: a republish counted hits +%d, recomputed +%d; a clean refresh counts +%d, +0",
				label, de.Hits-hits, de.Recomputed-recomputed, n)
		}
	}
	fresh := func(label string) {
		t.Helper()
		ev := de.Eval()
		if ev == prev {
			t.Fatalf("%s: Eval republished an evaluation the stamp no longer covers", label)
		}
		assertEvalIdentical(t, label, ev, in.EvaluateRouted(de.Placement(), RouteModeOptimal, 0))
		prev = ev
		republished(label + "/again")
	}

	republished("bound")
	if de.AdvanceTo(de.Placement().Clone()) != 0 {
		t.Fatal("advancing to the bound placement changed bits")
	}
	republished("advance to itself")
	in.Lambda *= 2
	fresh("lambda")
	in.Budget = 1
	fresh("budget")
	svc := 0
	for in.M() > svc && de.Placement().Count(svc) < 2 {
		svc++
	}
	k := de.Placement().NodesOf(svc)[0]
	de.Revert(de.Apply(svc, k, false))
	fresh("apply then revert")
	de.Apply(svc, k, false)
	fresh("apply")
	q := de.Placement().Clone()
	q.Set(svc, k, true)
	de.AdvanceTo(q)
	fresh("advance")
	de.Rebind(de.Placement())
	fresh("rebind")
	de.EditRequests(in.Workload.Requests, nil, nil)
	republished("an empty edit")
	de.EditRequests(in.Workload.Requests, nil, []int{0})
	fresh("edit requests")
}

// TestDeltaEvaluatorStaleBindingPanics proves the epoch contract: a
// placement mutation that bypasses the evaluator must make the next Eval
// fail loudly instead of serving stale routes.
func TestDeltaEvaluatorStaleBindingPanics(t *testing.T) {
	in := indexTestInstance(t, 6, 20, 1)
	de := NewDeltaEvaluator(in, densePlacement(in, 1), RouteModeOptimal, 0)
	de.Eval()
	de.Index().Set(0, 0, !de.Placement().Has(0, 0)) // behind the evaluator's back
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Eval on a stale binding did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "stale binding") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	de.Eval()
}

// TestDeltaEvaluatorCloudAndMissing exercises the fallback classes: removing
// a service's last instance must flip its users to cloud-served (with the
// fallback) or missing (without), exactly as the scratch evaluator counts.
func TestDeltaEvaluatorCloudAndMissing(t *testing.T) {
	for _, withCloud := range []bool{false, true} {
		in := indexTestInstance(t, 8, 30, 2)
		if withCloud {
			cc := DefaultCloudConfig()
			in.Cloud = &cc
		}
		p := densePlacement(in, 2)
		de := NewDeltaEvaluator(in, p.Clone(), RouteModeOptimal, 0)
		de.Eval()
		// Remove every instance of the first used service.
		svc := in.Workload.Requests[0].Chain[0]
		for _, k := range append([]int(nil), de.Placement().NodesOf(svc)...) {
			de.Apply(svc, k, false)
		}
		got := de.Eval()
		want := in.EvaluateRouted(de.Placement(), RouteModeOptimal, 0)
		assertEvalIdentical(t, "last-instance", got, want)
		if withCloud && got.CloudServed == 0 {
			t.Fatal("cloud fallback configured but no request cloud-served")
		}
		if !withCloud && got.MissingInstances == 0 {
			t.Fatal("no cloud fallback but no request counted missing")
		}
	}
}

// TestDeltaEvaluatorRevertTwicePanics documents the delta lifecycle.
func TestDeltaEvaluatorRevertTwicePanics(t *testing.T) {
	in := indexTestInstance(t, 6, 20, 1)
	de := NewDeltaEvaluator(in, densePlacement(in, 1), RouteModeOptimal, 0)
	dl := de.Apply(0, 0, !de.Placement().Has(0, 0))
	de.Revert(dl)
	defer func() {
		if recover() == nil {
			t.Fatal("double Revert did not panic")
		}
	}()
	de.Revert(dl)
}

// TestDeltaEvaluatorRevertAcrossAdvanceToPanics: an undo record belongs to
// the placement it was taken on. Reverting a removal of (0,0) after a move to
// a placement without that instance would put the instance back where the
// caller's target has none, and the evaluator would go on scoring that wrong
// placement self-consistently; so the Revert must panic, after AdvanceTo and
// after Rebind alike.
func TestDeltaEvaluatorRevertAcrossAdvanceToPanics(t *testing.T) {
	for _, leg := range []string{"AdvanceTo", "Rebind"} {
		t.Run(leg, func(t *testing.T) {
			in := indexTestInstance(t, 6, 20, 1)
			p := densePlacement(in, 1)
			p.Set(0, 0, true)
			de := NewDeltaEvaluator(in, p, RouteModeOptimal, 0)
			dl := de.Apply(0, 0, false)
			target := de.Placement().Clone()
			if leg == "AdvanceTo" {
				de.AdvanceTo(target)
			} else {
				de.Rebind(target)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("Revert of a delta taken before %s did not panic: it put (0,0) back into a placement without it", leg)
				}
			}()
			de.Revert(dl)
		})
	}
}

// TestDeltaEvaluatorLastInstanceOfUnroutable: a request whose only instance
// sits on another island is unroutable (deployed, +Inf); removing that last
// instance must reclassify it exactly as the scratch evaluator does — Missing
// without a cloud, cloud-served at a finite latency with one — on every
// mutation path, ProbeRemoval's counterfactual included.
func TestDeltaEvaluatorLastInstanceOfUnroutable(t *testing.T) {
	for _, withCloud := range []bool{false, true} {
		g := topology.New(4)
		for i := 0; i < 4; i++ {
			g.AddNode(float64(i), 0, 10, 50)
		}
		for _, l := range [][2]int{{0, 1}, {2, 3}} { // two islands
			if err := g.AddLink(l[0], l[1], 30); err != nil {
				t.Fatal(err)
			}
		}
		g.Finalize()
		cat := msvc.NewCatalog()
		a, _ := cat.Add("a", 100, 1, 1)
		cat.AddFlow([]msvc.ServiceID{a})
		in := &Instance{Graph: g, Lambda: 0.5, Budget: 1e4, Workload: &msvc.Workload{Catalog: cat,
			Requests: []msvc.Request{{Home: 0, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)}}}}
		if withCloud {
			cc := DefaultCloudConfig()
			in.Cloud = &cc
		}
		p := NewPlacement(1, 4)
		p.Set(a, 2, true)
		empty := NewPlacement(1, 4)
		want := in.EvaluateRouted(empty, RouteModeOptimal, 0)

		check := func(label string, got *Evaluation) {
			t.Helper()
			assertEvalIdentical(t, label, got, want)
			if got.Unroutable != want.Unroutable {
				t.Fatalf("%s: unroutable %d, scratch says %d", label, got.Unroutable, want.Unroutable)
			}
		}
		de := NewDeltaEvaluator(in, p.Clone(), RouteModeOptimal, 0)
		if ev := de.Eval(); ev.Unroutable != 1 {
			t.Fatalf("cloud=%v: fixture is not unroutable: %+v", withCloud, countersOf(ev))
		}
		obj, _ := de.ProbeRemoval(a, 2)
		if obj != want.Objective && !(math.IsInf(obj, 1) && math.IsInf(want.Objective, 1)) {
			t.Fatalf("cloud=%v: ProbeRemoval objective %v, scratch says %v", withCloud, obj, want.Objective)
		}
		dl := de.Apply(a, 2, false)
		check("apply", de.Eval())
		de.Revert(dl)
		de.AdvanceTo(empty)
		check("advance", de.Eval())
	}
}
