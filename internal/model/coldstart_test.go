package model

import (
	"strings"
	"testing"
)

// TestColdStartNilBitwise pins the acceptance criterion of the serverless
// extension: a zero cold-start configuration leaves every evaluation byte
// identical to the legacy model. Both neutral configurations are pinned —
// Delay = 0 with a non-empty cold set, and Delay > 0 with an all-warm set —
// against ColdStart == nil, under all three routing modes.
func TestColdStartNilBitwise(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := randomInstance(seed, 8, 12)
		p := randomPlacement(in, seed+1)
		for _, mode := range []RoutingMode{RouteModeOptimal, RouteModeGreedy, RouteModeRandom} {
			want := in.EvaluateRouted(p, mode, seed)

			zero := NewColdStartModel(in.M(), in.V(), 0)
			zero.SyncWarm(NewPlacement(in.M(), in.V())) // everything cold, but Delay = 0
			in.ColdStart = zero
			got := in.EvaluateRouted(p, mode, seed)
			assertEvalIdentical(t, "zero-delay/"+mode.String(), got, want)

			warm := NewColdStartModel(in.M(), in.V(), 2.5)
			warm.SyncWarm(p) // deployed instances warm; cold ones are never routed to...
			in.ColdStart = warm
			got = in.EvaluateRouted(p, mode, seed)
			assertEvalIdentical(t, "all-warm/"+mode.String(), got, want)

			in.ColdStart = nil
		}
	}
}

// TestColdStartAddsDelay forces a single-candidate route (one instance per
// service) and checks the cold term is charged exactly once per cold chain
// step: marking every deployed instance cold must raise each served request's
// completion time by exactly len(chain)·Delay.
func TestColdStartAddsDelay(t *testing.T) {
	in := randomInstance(7, 8, 12)
	p := NewPlacement(in.M(), in.V())
	for i := 0; i < in.M(); i++ {
		p.Set(i, i%in.V(), true) // exactly one instance per service
	}
	base := in.EvaluateRouted(p, RouteModeOptimal, 0)

	const delay = 3.25
	cs := NewColdStartModel(in.M(), in.V(), delay)
	for i := 0; i < in.M(); i++ {
		cs.SetCold(i, i%in.V(), true)
	}
	in.ColdStart = cs
	defer func() { in.ColdStart = nil }()
	cold := in.EvaluateRouted(p, RouteModeOptimal, 0)

	for h := range in.Workload.Requests {
		if base.Routes[h].Nodes == nil || cold.Routes[h].Nodes == nil {
			continue // unserved either way
		}
		wantLat := base.Latencies[h] + float64(len(in.Workload.Requests[h].Chain))*delay
		// The delay accrues inside the step-by-step summation, so the
		// comparison is epsilon-exact, not bitwise.
		if diff := cold.Latencies[h] - wantLat; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("request %d: cold latency %v, want base %v + %d·%v = %v",
				h, cold.Latencies[h], base.Latencies[h], len(in.Workload.Requests[h].Chain), delay, wantLat)
		}
	}
	if cold.LatencySum <= base.LatencySum {
		t.Fatalf("cold latency sum %v not above warm %v", cold.LatencySum, base.LatencySum)
	}
}

// TestColdStartEpoch checks the mutation-tracking contract SetCold/SyncWarm
// promise to evaluator bindings.
func TestColdStartEpoch(t *testing.T) {
	cs := NewColdStartModel(3, 4, 1)
	coldCount := func() int {
		n := 0
		for _, row := range cs.cold {
			for _, c := range row {
				if c {
					n++
				}
			}
		}
		return n
	}
	if cs.Epoch() != 0 || coldCount() != 0 {
		t.Fatalf("fresh model: epoch %d count %d", cs.Epoch(), coldCount())
	}
	cs.SetCold(1, 2, true)
	if cs.Epoch() != 1 || coldCount() != 1 || !cs.IsCold(1, 2) {
		t.Fatalf("after SetCold: epoch %d count %d", cs.Epoch(), coldCount())
	}
	cs.SetCold(1, 2, true) // no-op must not bump
	if cs.Epoch() != 1 {
		t.Fatalf("no-op SetCold bumped epoch to %d", cs.Epoch())
	}
	p := NewPlacement(3, 4)
	p.Set(0, 0, true)
	if changed := cs.SyncWarm(p); changed != 12-1-1 { // all but (0,0) cold; (1,2) already was
		t.Fatalf("SyncWarm changed %d coordinates", changed)
	}
	if coldCount() != 11 || cs.IsCold(0, 0) || cs.Epoch() != 2 {
		t.Fatalf("after SyncWarm: count %d epoch %d", coldCount(), cs.Epoch())
	}
	if cs.SyncWarm(p) != 0 || cs.Epoch() != 2 {
		t.Fatalf("idempotent SyncWarm bumped epoch to %d", cs.Epoch())
	}
}

// TestDeltaEvaluatorColdStart checks (a) the delta engine stays bit-identical
// to the scratch evaluator when a cold-start model is active, and (b) a
// cold-set mutation behind the evaluator's back panics like an index-epoch
// drift, and Rebind re-adopts the new cold set.
func TestDeltaEvaluatorColdStart(t *testing.T) {
	in := randomInstance(11, 8, 12)
	p := randomPlacement(in, 12)
	cs := NewColdStartModel(in.M(), in.V(), 1.75)
	cs.SyncWarm(NewPlacement(in.M(), in.V())) // everything cold: the term is live on every route
	in.ColdStart = cs
	defer func() { in.ColdStart = nil }()

	de := NewDeltaEvaluator(in, p.Clone(), RouteModeOptimal, 0)
	assertEvalIdentical(t, "cold/initial", de.Eval(), in.EvaluateRouted(de.Placement(), RouteModeOptimal, 0))
	dl := de.Apply(0, 0, !p.Has(0, 0))
	assertEvalIdentical(t, "cold/applied", de.Eval(), in.EvaluateRouted(de.Placement(), RouteModeOptimal, 0))
	de.Revert(dl)
	assertEvalIdentical(t, "cold/reverted", de.Eval(), in.EvaluateRouted(de.Placement(), RouteModeOptimal, 0))

	cs.SetCold(0, 0, false) // mutate the cold set behind the binding
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Eval after cold-set mutation did not panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "cold-start") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		de.Eval()
	}()

	de.Rebind(de.Placement())
	assertEvalIdentical(t, "cold/rebound", de.Eval(), in.EvaluateRouted(de.Placement(), RouteModeOptimal, 0))
}
