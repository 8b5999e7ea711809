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
// sequence of arrivals, departures, moves, placement mutations and probes,
// and after every step its Eval must equal, bit for bit, a scratch
// EvaluateRouted on a copy of the edited workload — and after every batch of
// edits, a fresh evaluator bound to that copy. A walk is a byte string — one scenario byte,
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

// editBatch records the admission edits a walk makes between two syncs the
// way a queue sees them — request by request on the caller's list — and
// turns them into an EditRequests batch: origin[h] is active[h]'s index in
// the list the evaluator holds (-1 for an arrival of this batch), moved[h]
// marks a re-homed request.
type editBatch struct {
	held    int
	origin  []int
	moved   []bool
	pending bool
}

func (b *editBatch) reset(n int) {
	b.held, b.pending = n, false
	b.origin, b.moved = b.origin[:0], b.moved[:0]
	for h := 0; h < n; h++ {
		b.origin, b.moved = append(b.origin, h), append(b.moved, false)
	}
}

func (b *editBatch) arrive() {
	b.origin, b.moved, b.pending = append(b.origin, -1), append(b.moved, false), true
}

func (b *editBatch) depart(h int) {
	b.origin = append(b.origin[:h], b.origin[h+1:]...)
	b.moved = append(b.moved[:h], b.moved[h+1:]...)
	b.pending = true
}

func (b *editBatch) move(h int) { b.moved[h], b.pending = true, true }

// batch is the recorded edits as EditRequests takes them: the departed
// indices of the held list, ascending, and the moved survivors' new indices.
func (b *editBatch) batch() (gone, moved []int) {
	kept := make([]bool, b.held)
	for h, o := range b.origin {
		if o >= 0 {
			kept[o] = true
			if b.moved[h] {
				moved = append(moved, h)
			}
		}
	}
	for o, k := range kept {
		if !k {
			gone = append(gone, o)
		}
	}
	return gone, moved
}

// assertReads holds the evaluator's summary and per-request reads against
// its own Eval: the summary bit for bit with Eval's scalars, every latency
// bit for bit, every route by slice identity. The summary is taken first, so
// that an Eval at a new stamp cannot have cached it.
func assertReads(t testing.TB, label string, de *DeltaEvaluator) {
	t.Helper()
	de.Summary()
	if err := DiffView(de, de.Eval()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// assertPending holds the evaluator's bookkeeping before a refresh: every
// invalid entry is on the pending list, each listed entry once and marked
// listed, and the cached deploy cost is a fresh DeployCost bit for bit.
func assertPending(t testing.TB, label string, de *DeltaEvaluator) {
	t.Helper()
	listed := make(map[int]int, len(de.pend))
	for _, h := range de.pend {
		listed[h]++
	}
	for h := range de.routes {
		e := &de.routes[h]
		if (!e.valid && listed[h] == 0) || listed[h] > 1 || e.queued != (listed[h] == 1) {
			t.Fatalf("%s: request %d (valid %v, marked %v) is on the pending list %v %d times", label, h, e.valid, e.queued, de.pend, listed[h])
		}
	}
	if got, want := de.deployCost(), de.in.DeployCost(de.Placement()); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: cached deploy cost %v, DeployCost %v", label, got, want)
	}
}

// runEditWalk plays data on one evaluator and checks every synced step
// against a scratch evaluation of the edited workload and, after every batch
// of edits, against a fresh evaluator bound to the edited list; both times its
// summary and per-request reads are held against its own Eval. Operations 0–5
// edit the list the way an admission queue does and accumulate into one
// batch; every other operation syncs the batch first. Before each of these
// checks refreshes, the pending list and the deploy cost are held to the
// evaluator's state.
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
	// The evaluator edits the workload it is bound to: give it its own list.
	in.Workload.Requests = append([]msvc.Request(nil), active...)
	de := NewDeltaEvaluator(in, p, sc.mode, seed)
	var rec editBatch
	rec.reset(len(active))

	// scratch evaluates a placement on a private copy of the live list.
	scratch := func(q Placement) *Evaluation {
		ref := *in
		ref.Workload = &msvc.Workload{Catalog: in.Workload.Catalog, Requests: append([]msvc.Request(nil), active...)}
		return ref.EvaluateRouted(q, sc.mode, seed)
	}
	check := func(step int, label string) {
		t.Helper()
		at := fmt.Sprintf("%s step %d %s", sc, step, label)
		assertPending(t, at, de)
		assertReads(t, at, de)
		want := scratch(de.Placement())
		assertEvalIdentical(t, sc.String()+"/"+label, de.Eval(), want)
		obj, over := de.EvalObjective()
		if math.Float64bits(obj) != math.Float64bits(want.Objective) || over != want.OverBudget {
			t.Fatalf("%s step %d %s: EvalObjective (%v, %v), scratch (%v, %v)", sc, step, label, obj, over, want.Objective, want.OverBudget)
		}
	}
	check(-1, "bound")

	// sync applies the recorded batch and holds the evaluator, field for
	// field, against a fresh one bound to a copy of the edited list.
	sync := func(step int) {
		t.Helper()
		gone, moved := rec.batch()
		de.EditRequests(active, gone, moved)
		rec.reset(len(active))
		ref := *in
		ref.Workload = &msvc.Workload{Catalog: in.Workload.Catalog, Requests: append([]msvc.Request(nil), active...)}
		fresh := NewDeltaEvaluator(&ref, de.Placement().Clone(), sc.mode, seed)
		label := fmt.Sprintf("%s step %d: after departures %v and moves %v", sc, step, gone, moved)
		assertPending(t, label, de)
		assertReads(t, label, de)
		for h := range active {
			if !sameRequest(&de.Workload().Requests[h], &fresh.Workload().Requests[h]) {
				t.Fatalf("%s: request %d is %+v, want %+v", label, h, de.Workload().Requests[h], active[h])
			}
		}
		if len(de.Workload().Requests) != len(active) || !slices.EqualFunc(de.chains(), fresh.chains(), slices.Equal[[]int]) {
			t.Fatalf("%s: %d requests, chainReqs %v, a fresh evaluator has %d, %v", label, len(de.Workload().Requests), de.chains(), len(active), fresh.chains())
		}
		assertEvalIdentical(t, label, de.Eval(), fresh.Eval())
	}

	checkLate := func(step int, label string) {
		t.Helper()
		assertPending(t, fmt.Sprintf("%s step %d %s", sc, step, label), de)
		want := lateCount(active, scratch(de.Placement())) > 0
		if got := de.AnyLate(); got != want {
			t.Fatalf("%s step %d %s: AnyLate = %v, scratch has late requests: %v", sc, step, label, got, want)
		}
	}
	depart := func(i int) {
		active = append(active[:i], active[i+1:]...)
		rec.depart(i)
	}
	arrive := func(req msvc.Request) {
		active = append(active, req)
		rec.arrive()
	}

	ops := data[1:]
	for step := 0; step+2 < len(ops); step += 3 {
		op, a, b := ops[step]%17, int(ops[step+1]), int(ops[step+2])
		svc, node := a%editServices, b%editNodes
		if op > 5 && rec.pending {
			sync(step)
		}
		switch op {
		case 0: // arrive, appended
			arrive(editRequest(admitted, admitted, b))
			admitted++
		case 1: // depart
			if len(active) > 0 {
				depart(a % len(active))
			}
		case 2: // move, in place — the last request when a is odd
			if len(active) > 0 {
				i := a % len(active)
				if a&1 == 1 {
					i = len(active) - 1
				}
				active[i].Home = node
				rec.move(i)
			}
		case 3: // a departed ID comes back at once as a different request
			if len(active) > 0 {
				i := a % len(active)
				id := active[i].ID
				depart(i)
				arrive(editRequest(id, admitted+1+b, b))
				admitted++
			}
		case 4: // several departures
			for j := 0; j < 2+b%3 && len(active) > 0; j++ {
				depart((a + 3*j) % len(active))
			}
		case 5: // full turnover: everything departs, a few arrive
			for len(active) > 0 {
				depart(len(active) - 1 - a%len(active))
			}
			for j := 0; j <= b%4; j++ {
				arrive(editRequest(admitted, admitted, b+j))
				admitted++
			}
		case 6: // permanent flip (last-instance removals included)
			de.Apply(svc, node, !de.Placement().Has(svc, node))
		case 7: // probe: apply, score, revert
			before := de.Eval()
			dl := de.Apply(svc, node, !de.Placement().Has(svc, node))
			check(step, "probe")
			de.Revert(dl)
			assertEvalIdentical(t, sc.String()+"/revert", de.Eval(), before)
		case 8: // counterfactual removal, which leaves no trace
			cf := de.Placement().Clone()
			cf.Set(svc, node, false)
			want := scratch(cf)
			before := de.Eval()
			obj, over := de.ProbeRemoval(svc, node)
			if math.Float64bits(obj) != math.Float64bits(want.Objective) || over != want.OverBudget {
				t.Fatalf("%s step %d: ProbeRemoval(%d,%d) = (%v, %v), scratch (%v, %v)", sc, step, svc, node, obj, over, want.Objective, want.OverBudget)
			}
			assertEvalIdentical(t, sc.String()+"/probe-removal", de.Eval(), before)
		case 9: // jump to an unrelated placement, where service 3 is scarce
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
		case 10: // sync, the batch empty unless edits preceded
			sync(step)
		case 11: // counterfactual additions: one service, then a bundle next door
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
		case 12: // Eq. 4 verdict
			checkLate(step, "verdict")
		case 13: // a combine serial step: a removal, migrations (add, then
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
		case 14: // Eval twice with nothing in between: the second republishes
			first := de.Eval()
			hits, recomputed := de.Hits, de.Recomputed
			if de.Eval() != first || de.Hits != hits+len(active) || de.Recomputed != recomputed {
				t.Fatalf("%s step %d: a second Eval was not a republish counted as a clean refresh", sc, step)
			}
		case 15: // the trade-off, then the budget, move under the binding
			for _, w := range []struct {
				f *float64
				v float64
			}{
				{&in.Lambda, 0.25 * float64(1+a%4)},
				{&in.Budget, 600 + 150*float64(b%4)},
			} {
				before := de.Eval()
				moved := math.Float64bits(*w.f) != math.Float64bits(w.v)
				*w.f = w.v
				if moved && de.Eval() == before {
					t.Fatalf("%s step %d: Eval republished an evaluation of other weights", sc, step)
				}
				check(step, "weights")
			}
		case 16: // a probe left open across a jump: the flip stays, the Revert panics
			dl := de.Apply(svc, node, !de.Placement().Has(svc, node))
			jump := "AdvanceTo"
			if a&1 == 0 {
				de.AdvanceTo(de.Placement().Clone())
			} else {
				jump = "Rebind"
				de.Rebind(de.Placement())
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s step %d: Revert of a delta taken before %s did not panic", sc, step, jump)
					}
				}()
				de.Revert(dl)
			}()
		}
		if !rec.pending {
			check(step, "op")
		}
	}
	if rec.pending {
		sync(len(ops))
		check(len(ops), "last batch")
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

// editCases are walks every scenario plays before the generated ones, so
// that each batch shape the daemon makes is covered whatever the generator
// draws: several departures in one batch, a departure and the re-arrival of
// its ID, a move of the last request, and full turnover — each followed by a
// placement mutation and a probe, so that the edited cache is mutated too.
var editCases = [][]byte{
	{1, 0, 0, 1, 3, 0, 1, 1, 0, 6, 1, 2, 7, 2, 4},                    // three departs, one batch
	{4, 2, 1, 0, 0, 3, 10, 0, 0, 7, 0, 1},                            // several departs and an arrival
	{3, 1, 2, 2, 4, 1, 10, 0, 0, 8, 2, 0},                            // depart and re-arrive one ID, a move
	{2, 1, 3, 10, 0, 0, 6, 3, 1, 2, 3, 5, 10, 0, 0},                  // move the last request
	{5, 0, 2, 6, 1, 4, 5, 3, 3, 0, 0, 1, 7, 1, 2},                    // full turnover, twice
	{0, 0, 1, 1, 5, 0, 10, 0, 0, 0, 0, 1, 5, 1, 0, 3, 0, 2, 2, 1, 1}, // arrive and depart in one batch; turnover, re-arrival and a move in another
}

// TestDeltaEvaluatorEditsGenerated: every scenario — three routing modes ×
// cloud × islands × cold starts — over the fixed edit cases and generated
// walks.
func TestDeltaEvaluatorEditsGenerated(t *testing.T) {
	for sc := byte(0); sc < 32; sc++ {
		if sc&3 == 3 {
			continue // decodes to the same mode as 0
		}
		for _, c := range editCases {
			runEditWalk(t, append([]byte{sc}, c...))
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
	for i, c := range editCases {
		f.Add(append([]byte{byte(i)}, c...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*200 {
			data = data[:1+3*200]
		}
		runEditWalk(t, data)
	})
}

// TestEditRequestsCarriesRoutes pins what the generated walks cannot see —
// that an edited evaluator re-routes only what changed: the moved request
// and the arrival, not the departed request's neighbours; an ID that comes
// back as another request is re-routed; random routing drops the routes from
// the first departure on, and keeps those before it. And BoundTo recognizes
// the evaluator's own workload by pointer.
func TestEditRequestsCarriesRoutes(t *testing.T) {
	in := indexTestInstance(t, 9, 40, 5)
	all := in.Workload.Requests
	active := append([]msvc.Request(nil), all[:30]...)
	in.Workload.Requests = append([]msvc.Request(nil), active...)
	p := densePlacement(in, 5)

	de := NewDeltaEvaluator(in, p.Clone(), RouteModeOptimal, 0)
	de.Eval()
	rerouted := func(de *DeltaEvaluator, mode RoutingMode, gone, moved []int) int {
		t.Helper()
		before := de.Recomputed
		de.EditRequests(active, gone, moved)
		ref := *in
		ref.Workload = &msvc.Workload{Catalog: in.Workload.Catalog, Requests: active}
		assertEvalIdentical(t, "carry", de.Eval(), ref.EvaluateRouted(de.Placement(), mode, 3))
		return de.Recomputed - before
	}
	if n := rerouted(de, RouteModeOptimal, nil, nil); n != 0 {
		t.Fatalf("an empty batch re-routed %d requests", n)
	}
	active = append(active[:7], active[8:]...) // depart
	active = append(active, all[30])           // arrive
	active[3].Home = (active[3].Home + 1) % in.V()
	if n := rerouted(de, RouteModeOptimal, []int{7}, []int{3}); n != 2 {
		t.Fatalf("depart + arrive + move re-routed %d requests, want 2", n)
	}
	back := all[31]
	back.ID = active[5].ID // the same ID and place, another request
	active = append(append(active[:5], active[6:]...), back)
	if n := rerouted(de, RouteModeOptimal, []int{5}, nil); n != 1 {
		t.Fatalf("a re-used ID re-routed %d requests, want 1", n)
	}

	// The pointer path, and the comparison it skips.
	own := &Instance{Graph: in.Graph, Lambda: in.Lambda, Budget: in.Budget, Workload: de.Workload()}
	if !de.BoundTo(own, RouteModeOptimal, 99) {
		t.Fatal("an edited evaluator does not report itself bound to its own workload")
	}
	if own.Lambda++; de.BoundTo(own, RouteModeOptimal, 99) {
		t.Fatal("the pointer path skipped the trade-off")
	}
	copied := &Instance{Graph: in.Graph, Lambda: in.Lambda, Budget: in.Budget,
		Workload: &msvc.Workload{Catalog: in.Workload.Catalog, Requests: active}}
	if !de.BoundTo(copied, RouteModeOptimal, 0) {
		t.Fatal("BoundTo rejects a copy of the edited list")
	}
	active[0].Home = (active[0].Home + 1) % in.V()
	if de.BoundTo(copied, RouteModeOptimal, 0) {
		t.Fatal("BoundTo missed a move the evaluator was not told about")
	}
	active[0].Home = de.Workload().Requests[0].Home

	rin := *in
	rin.Workload = &msvc.Workload{Catalog: in.Workload.Catalog, Requests: append([]msvc.Request(nil), active...)}
	rnd := NewDeltaEvaluator(&rin, p.Clone(), RouteModeRandom, 3)
	rnd.Eval()
	active = append(active[:20], active[21:]...)
	if n := rerouted(rnd, RouteModeRandom, []int{20}, nil); n != len(active)-20 {
		t.Fatalf("random routing re-routed %d requests after a departure at 20 of %d, want the %d it shifted", n, len(active)+1, len(active)-20)
	}
}

// TestRevertAcrossEditRequestsPanics: an undo record indexes the request list
// it was taken on.
func TestRevertAcrossEditRequestsPanics(t *testing.T) {
	in := indexTestInstance(t, 6, 20, 1)
	de := NewDeltaEvaluator(in, densePlacement(in, 1), RouteModeOptimal, 0)
	dl := de.Apply(0, 0, !de.Placement().Has(0, 0))
	kept := append([]msvc.Request(nil), in.Workload.Requests[:10]...)
	de.EditRequests(kept, []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Revert of a delta taken before EditRequests did not panic")
		}
	}()
	de.Revert(dl)
}
