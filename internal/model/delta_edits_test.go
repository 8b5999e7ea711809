package model

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/msvc"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file is the generated differential test of the delta evaluator,
// workload edits included: one DeltaEvaluator is walked through a random
// sequence of arrivals, departures, moves, placement mutations and probes, and after
// every step its Eval must equal, bit for bit, a scratch EvaluateRouted on a
// copy of the edited workload. A walk is a byte string — one scenario byte,
// then three bytes an operation — so the same driver serves the seeded test
// and the native fuzz target.

const (
	editNodes    = 6
	editServices = 4
)

// editChains are the chains an arrival draws from; two repeat a service.
var editChains = [][]int{{0}, {1, 2}, {0, 1, 0}, {2, 3, 1}, {3}, {1, 1, 2, 0}}

// editScenario decodes the scenario byte: routing mode, cloud fallback, a
// substrate of two islands, a cold-start model with a fixed cold set.
type editScenario struct {
	mode                      RoutingMode
	cloud, disconnected, cold bool
}

func decodeEditScenario(b byte) editScenario {
	return editScenario{
		mode:         []RoutingMode{RouteModeOptimal, RouteModeGreedy, RouteModeRandom}[int(b&3)%3],
		cloud:        b&4 != 0,
		disconnected: b&8 != 0,
		cold:         b&16 != 0,
	}
}

func (sc editScenario) String() string {
	return fmt.Sprintf("%s/cloud=%t/islands=%t/cold=%t", sc.mode, sc.cloud, sc.disconnected, sc.cold)
}

// editInstance builds the scenario's instance with no requests: a ring of
// six nodes, or — disconnected — a four-node path and a two-node island.
func editInstance(t testing.TB, sc editScenario) *Instance {
	t.Helper()
	g := topology.New(editNodes)
	for k := 0; k < editNodes; k++ {
		g.AddNode(float64(k), float64(k%2), 8+float64(k), 60)
	}
	links := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}
	if sc.disconnected {
		links = [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}}
	}
	for i, l := range links {
		if err := g.AddLink(l[0], l[1], 20+5*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g.Finalize()
	cat := msvc.NewCatalog()
	for i := 0; i < editServices; i++ {
		if _, err := cat.Add(string(rune('a'+i)), 80+10*float64(i), 1+float64(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	in := &Instance{Graph: g, Lambda: 0.5, Budget: 900, Workload: &msvc.Workload{Catalog: cat}}
	if sc.cloud {
		cc := DefaultCloudConfig()
		in.Cloud = &cc
	}
	if sc.cold {
		in.ColdStart = NewColdStartModel(editServices, editNodes, 0.75)
		for i := 0; i < editServices; i++ {
			in.ColdStart.SetCold(i, (2*i+1)%editNodes, true)
			in.ColdStart.SetCold(i, (i+4)%editNodes, true)
		}
	}
	return in
}

// editRequest is the n-th admission: fresh chain storage every time, as the
// daemon's admit gives it, and sizes that differ from request to request.
// Deadlines sit among the fixture's latencies (about 0.1–2.5 at the edge,
// 3–8 in the cloud), so some requests are late and some are not; a request
// over service 3 has none, so it can go missing without being late.
func editRequest(id, n, home int) msvc.Request {
	chain := append([]int(nil), editChains[n%len(editChains)]...)
	req := msvc.Request{ID: id, Home: home % editNodes, Chain: chain,
		DataIn: 1 + float64(n%5), DataOut: 2 + float64(n%3), Deadline: 2 + float64(n%7)}
	if slices.Contains(chain, 3) {
		req.Deadline = math.Inf(1)
	}
	req.EdgeData = make([]float64, len(chain)-1)
	for i := range req.EdgeData {
		req.EdgeData[i] = 3 + float64((n+i)%11)
	}
	return req
}

// runEditWalk plays data on one evaluator and checks every step against a
// scratch evaluation of the edited workload.
func runEditWalk(t testing.TB, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	sc := decodeEditScenario(data[0])
	const seed = 7
	in := editInstance(t, sc)
	p := NewPlacement(editServices, editNodes)
	for i := 0; i < editServices; i++ {
		p.Set(i, i, true)
		p.Set(i, (i+3)%editNodes, true)
	}
	var active []msvc.Request
	admitted := 0
	for ; admitted < 5; admitted++ {
		active = append(active, editRequest(admitted, admitted, admitted))
	}
	in.Workload.Requests = append([]msvc.Request(nil), active...)
	de := NewDeltaEvaluator(in, p, sc.mode, seed)

	// scratch evaluates a placement on a private copy of the live list: the
	// walk edits active in place, exactly as the daemon edits its own.
	scratch := func(q Placement) *Evaluation {
		ref := *in
		ref.Workload = &msvc.Workload{Catalog: in.Workload.Catalog, Requests: append([]msvc.Request(nil), active...)}
		return ref.EvaluateRouted(q, sc.mode, seed)
	}
	check := func(step int, label string) {
		t.Helper()
		want := scratch(de.Placement())
		assertEvalIdentical(t, sc.String()+"/"+label, de.Eval(), want)
		obj, over := de.EvalObjective()
		if math.Float64bits(obj) != math.Float64bits(want.Objective) || over != want.OverBudget {
			t.Fatalf("%s step %d %s: EvalObjective (%v, %v), scratch (%v, %v)", sc, step, label, obj, over, want.Objective, want.OverBudget)
		}
	}
	check(-1, "bound")

	checkLate := func(step int, label string) {
		t.Helper()
		want := lateCount(active, scratch(de.Placement())) > 0
		if got := de.AnyLate(); got != want {
			t.Fatalf("%s step %d %s: AnyLate = %v, scratch has late requests: %v", sc, step, label, got, want)
		}
	}

	ops := data[1:]
	for step := 0; step+2 < len(ops); step += 3 {
		op, a, b := ops[step]%15, int(ops[step+1]), int(ops[step+2])
		svc, node := a%editServices, b%editNodes
		edited := false
		switch op {
		case 0: // arrive, appended
			active = append(active, editRequest(admitted, admitted, b))
			admitted++
			edited = true
		case 1: // depart
			if len(active) > 0 {
				i := a % len(active)
				active = append(active[:i], active[i+1:]...)
				edited = true
			}
		case 2: // move, in place
			if len(active) > 0 {
				active[a%len(active)].Home = node
				edited = true
			}
		case 3: // a departed ID comes back as a different request
			if len(active) > 0 {
				i := a % len(active)
				id := active[i].ID
				active = append(active[:i], active[i+1:]...)
				active = append(active, editRequest(id, admitted+1+b, b))
				admitted++
				edited = true
			}
		case 4: // an edit outside the admission discipline: two requests swap places
			if len(active) > 1 {
				i, j := a%len(active), b%len(active)
				active[i], active[j] = active[j], active[i]
				edited = true
			}
		case 5: // permanent flip (last-instance removals included)
			de.Apply(svc, node, !de.Placement().Has(svc, node))
		case 6: // probe: apply, score, revert
			before := de.Eval()
			dl := de.Apply(svc, node, !de.Placement().Has(svc, node))
			check(step, "probe")
			de.Revert(dl)
			assertEvalIdentical(t, sc.String()+"/revert", de.Eval(), before)
		case 7: // counterfactual removal
			cf := de.Placement().Clone()
			cf.Set(svc, node, false)
			want := scratch(cf)
			obj, over := de.ProbeRemoval(svc, node)
			if math.Float64bits(obj) != math.Float64bits(want.Objective) || over != want.OverBudget {
				t.Fatalf("%s step %d: ProbeRemoval(%d,%d) = (%v, %v), scratch (%v, %v)", sc, step, svc, node, obj, over, want.Objective, want.OverBudget)
			}
		case 8: // jump to an unrelated placement, where service 3 is scarce
			q := NewPlacement(editServices, editNodes)
			for i := 0; i < editServices; i++ {
				for k := 0; k < editNodes; k++ {
					on := (a>>uint((i+k)%8))&1 == 1 || (b+i*k)%5 == 0
					if i == 3 {
						on = (a>>uint(k))&1 == 1 && (b+k)%4 == 0
					}
					q.Set(i, k, on)
				}
			}
			de.AdvanceTo(q)
		case 9: // sync with nothing edited
			edited = true
		case 10: // counterfactual additions: one service, then a bundle next door
			probeAdd := func(node int, svcs ...int) {
				t.Helper()
				cf := de.Placement().Clone()
				for _, s := range svcs {
					cf.Set(s, node, true)
				}
				want := summarizeAdd(scratch(cf))
				got := de.ProbeAdd(node, svcs...)
				if got.MissingInstances != want.MissingInstances || got.Unroutable != want.Unroutable ||
					math.Float64bits(got.ServedLatencySum) != math.Float64bits(want.ServedLatencySum) ||
					math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.OverBudget != want.OverBudget {
					t.Fatalf("%s step %d: ProbeAdd(%d, %v) = %+v, scratch %+v", sc, step, node, svcs, got, want)
				}
			}
			probeAdd(node, svc)
			probeAdd((node+1)%editNodes, svc, (svc+1+b%3)%editServices, svc)
		case 11: // Eq. 4 verdict
			checkLate(step, "verdict")
		case 12: // a combine serial step: a removal, migrations (add, then
			// remove), a verdict or an Eval, and a roll-back in LIFO order
			before := de.Placement().Clone()
			dls := []*Delta{de.Apply(svc, node, false)}
			for j := 0; j <= b%3; j++ {
				ms := (svc + 1 + j) % editServices
				dls = append(dls, de.Apply(ms, (a+2*j+1)%editNodes, true), de.Apply(ms, (b+j)%editNodes, false))
			}
			if a&16 == 0 {
				checkLate(step, "step verdict")
			} else {
				check(step, "step")
			}
			for j := len(dls) - 1; j >= 0; j-- {
				de.Revert(dls[j])
			}
			for i := range before.X {
				for k := range before.X[i] {
					if de.Placement().Has(i, k) != before.Has(i, k) {
						t.Fatalf("%s step %d: the roll-back left (%d,%d) at %v", sc, step, i, k, !before.Has(i, k))
					}
				}
			}
		case 13: // Eval twice with nothing in between: the second republishes
			first := de.Eval()
			hits, recomputed := de.Hits, de.Recomputed
			if de.Eval() != first || de.Hits != hits+len(active) || de.Recomputed != recomputed {
				t.Fatalf("%s step %d: a second Eval was not a republish counted as a clean refresh", sc, step)
			}
		case 14: // the trade-off, then the budget, move under the binding
			// (after SetRequests the evaluator reads its own copy of in)
			for _, w := range []struct {
				mine, its *float64
				v         float64
			}{
				{&in.Lambda, &de.in.Lambda, 0.25 * float64(1+a%4)},
				{&in.Budget, &de.in.Budget, 600 + 150*float64(b%4)},
			} {
				before := de.Eval()
				moved := math.Float64bits(*w.its) != math.Float64bits(w.v)
				*w.mine, *w.its = w.v, w.v
				if moved && de.Eval() == before {
					t.Fatalf("%s step %d: Eval republished an evaluation of other weights", sc, step)
				}
				check(step, "weights")
			}
		}
		if edited {
			de.SetRequests(active)
		}
		check(step, "op")
	}
}

// generatedEditWalk draws a walk of n operations for scenario byte sc.
func generatedEditWalk(sc byte, n int, seed int64) []byte {
	r := stats.NewRand(stats.SplitSeed(seed, "delta-edits"))
	data := make([]byte, 1+3*n)
	data[0] = sc
	for i := 1; i < len(data); i++ {
		data[i] = byte(r.Intn(256))
	}
	return data
}

// TestDeltaEvaluatorEditsGenerated: every scenario — three routing modes ×
// cloud × islands × cold starts — over generated walks.
func TestDeltaEvaluatorEditsGenerated(t *testing.T) {
	for sc := byte(0); sc < 32; sc++ {
		if sc&3 == 3 {
			continue // decodes to the same mode as 0
		}
		for seed := int64(1); seed <= 3; seed++ {
			runEditWalk(t, generatedEditWalk(sc, 60, seed))
		}
	}
}

// FuzzDeltaEvaluatorEdits lets the fuzzer write the walk.
func FuzzDeltaEvaluatorEdits(f *testing.F) {
	for sc := byte(0); sc < 32; sc += 5 {
		f.Add(generatedEditWalk(sc, 24, int64(sc)+1))
	}
	f.Add([]byte{0, 3, 1, 1, 2, 0, 4, 5, 2, 2, 1, 2, 3}) // ID re-use, then a move
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*200 {
			data = data[:1+3*200]
		}
		runEditWalk(t, data)
	})
}

// TestSetRequestsCarriesRoutes pins what the generated walks cannot see —
// that a synced evaluator re-routes only what changed: the moved request and
// the arrival, not the departed request's neighbours; an ID that comes back
// as another request is re-routed; random routing carries nothing.
func TestSetRequestsCarriesRoutes(t *testing.T) {
	in := indexTestInstance(t, 9, 40, 5)
	all := in.Workload.Requests
	active := append([]msvc.Request(nil), all[:30]...)
	in.Workload.Requests = active
	p := densePlacement(in, 5)

	de := NewDeltaEvaluator(in, p.Clone(), RouteModeOptimal, 0)
	de.SetRequests(active)
	de.Eval()
	rerouted := func(edit func()) int {
		t.Helper()
		edit()
		before := de.Recomputed
		de.SetRequests(active)
		ref := *in
		ref.Workload = &msvc.Workload{Catalog: in.Workload.Catalog, Requests: active}
		assertEvalIdentical(t, "carry", de.Eval(), ref.EvaluateRouted(de.Placement(), RouteModeOptimal, 0))
		return de.Recomputed - before
	}
	if n := rerouted(func() {}); n != 0 {
		t.Fatalf("an unedited list re-routed %d requests", n)
	}
	if n := rerouted(func() {
		active = append(active[:7], active[8:]...) // depart
		active = append(active, all[30])           // arrive
		active[3].Home = (active[3].Home + 1) % in.V()
	}); n != 2 {
		t.Fatalf("depart + arrive + move re-routed %d requests, want 2", n)
	}
	if n := rerouted(func() {
		back := all[31]
		back.ID = active[5].ID // the same ID and place, another request
		active[5] = back
	}); n != 1 {
		t.Fatalf("a re-used ID re-routed %d requests, want 1", n)
	}

	if !de.BoundTo(&Instance{Graph: in.Graph, Lambda: in.Lambda, Budget: in.Budget,
		Workload: &msvc.Workload{Catalog: in.Workload.Catalog, Requests: active}}, RouteModeOptimal, 99) {
		t.Fatal("a synced evaluator does not report itself bound to its own workload")
	}
	active[0].Home = (active[0].Home + 1) % in.V()
	if de.BoundTo(&Instance{Graph: in.Graph, Lambda: in.Lambda, Budget: in.Budget,
		Workload: &msvc.Workload{Catalog: in.Workload.Catalog, Requests: active}}, RouteModeOptimal, 0) {
		t.Fatal("BoundTo missed a move the evaluator was not told about")
	}

	rnd := NewDeltaEvaluator(in, p.Clone(), RouteModeRandom, 3)
	rnd.SetRequests(active)
	rnd.Eval()
	before := rnd.Recomputed
	rnd.SetRequests(active)
	rnd.Eval()
	if n := rnd.Recomputed - before; n != len(active) {
		t.Fatalf("random routing carried routes over an edit: %d of %d re-routed", n, len(active))
	}
}

// TestRevertAcrossSetRequestsPanics: an undo record indexes the request list
// it was taken on.
func TestRevertAcrossSetRequestsPanics(t *testing.T) {
	in := indexTestInstance(t, 6, 20, 1)
	de := NewDeltaEvaluator(in, densePlacement(in, 1), RouteModeOptimal, 0)
	dl := de.Apply(0, 0, !de.Placement().Has(0, 0))
	de.SetRequests(in.Workload.Requests[:10])
	defer func() {
		if recover() == nil {
			t.Fatal("Revert of a delta taken before SetRequests did not panic")
		}
	}()
	de.Revert(dl)
}
