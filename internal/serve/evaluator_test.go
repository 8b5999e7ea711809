package serve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/repair"
)

// churn shapes a serve-mode stream: base requests arrive at epoch 0 and stay;
// every gap-th epoch one departs, one arrives and moves requests move to a
// neighbouring node; a node crashes at epoch down and heals at epoch up.
type churn struct{ base, epochs, gap, moves, down, up int }

// stream builds c's events over reqs, one slice per epoch; crash is the node
// that goes down.
func (c churn) stream(cfg Config, reqs []msvc.Request, crash int) [][]Event {
	out := make([][]Event, c.epochs)
	out[0] = arrivals(0, 0, reqs[:c.base])
	live := make([]int, c.base) // active IDs, in admission order
	for i := range live {
		live[i] = i
	}
	next := c.base
	for e := c.gap; e < c.epochs && next < len(reqs); e += c.gap {
		gone := live[e%len(live)]
		live = append(live[:e%len(live)], live[e%len(live)+1:]...)
		out[e] = append(out[e], Event{Slot: e, Kind: EvDepart, ID: gone})
		out[e] = append(out[e], arrivals(e, next, reqs[next:next+1])...)
		live = append(live, next)
		next++
		for m := 0; m < c.moves; m++ {
			mover := live[(2*e+5*m)%len(live)]
			if nb := cfg.Graph.Neighbors(reqs[mover].Home); len(nb) > 0 {
				out[e] = append(out[e], Event{Slot: e, Kind: EvMove, ID: mover, Node: nb[(e+m)%len(nb)]})
			}
		}
	}
	out[c.down] = append(out[c.down], Event{Slot: c.down, Kind: EvFault, Fault: chaos.Event{Slot: c.down, Kind: chaos.NodeCrash, Node: crash}})
	out[c.up] = append(out[c.up], Event{Slot: c.up, Kind: EvFault, Fault: chaos.Event{Slot: c.up, Kind: chaos.NodeRecover, Node: crash}})
	return out
}

// play is what playEpochs observed: how many epochs built a new evaluator,
// and which were quiet — served on the evaluator that served the previous
// epoch, which re-routed nothing (its Recomputed did not move), and reusing
// the columns the previous epoch derived.
type play struct {
	rebinds int
	quiet   []bool
}

// playEpochs feeds a fresh daemon one epoch at a time. With dropEvaluator the
// daemon forgets its evaluator and its use counts before every epoch, so each
// one is scored on a binding built from scratch and its lifecycle columns are
// recounted — the reference the long-lived binding and the incremental counts
// must match, kept in test code only. Before epoch trimAt (if any) the record
// and delay streams are truncated, as trimHistory does.
func playEpochs(t *testing.T, cfg Config, epochs [][]Event, dropEvaluator bool, trimAt int) (*Daemon, play) {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pl play
	for e, evs := range epochs {
		if dropEvaluator {
			d.de = nil
			if d.use != nil {
				d.use.stale = true
			}
		}
		if e == trimAt {
			d.records, d.delays = d.records[:0], DelayStream{}
		}
		before, key := d.de, d.derivedKey
		recomputed := 0
		if before != nil {
			recomputed = before.Recomputed
		}
		d.Ingest(evs...)
		if _, err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		if d.de != before {
			pl.rebinds++
		}
		pl.quiet = append(pl.quiet, key.view != nil && d.view == model.EvalView(before) &&
			before.Recomputed == recomputed && d.derivedKey == key)
	}
	return d, pl
}

// TestDaemonSharedEvaluatorMatchesFresh: a serve-mode daemon with the
// lifecycle on, a crash and its heal, and departs, arrives and moves every
// few epochs must produce, column for column and delay for delay, what the
// same daemon produces when it is forced to drop its evaluator every epoch.
// The steady leg is serve_steady's shape: most epochs change nothing, so the
// evaluator re-routes nothing and the daemon reuses what it derived from it
// — also across a truncated delay stream.
func TestDaemonSharedEvaluatorMatchesFresh(t *testing.T) {
	g, cat, reqs := testScenario(t, 10, 40, 76)
	busy := churn{base: 28, epochs: 34, gap: 3, moves: 1, down: 7, up: 12}
	steady := churn{base: 28, epochs: 48, gap: 8, moves: 2, down: 11, up: 14}
	legs := []struct {
		name     string
		mode     model.RoutingMode
		maxBatch int
		shape    churn
		cold     float64 // the lifecycle's cold-start delay
	}{
		{"optimal", model.RouteModeOptimal, 0, busy, 0.25},
		{"optimal-batched", model.RouteModeOptimal, 5, busy, 0.25},
		{"greedy", model.RouteModeGreedy, 0, busy, 0.25},
		{"random", model.RouteModeRandom, 0, busy, 0.25},
		{"steady", model.RouteModeOptimal, 0, steady, 0.25},
		// Unpriced cold starts: a reap moves the bound evaluator's placement
		// without a cold-set epoch to re-bind it, so only the evaluator's
		// stamp tells the next steady epoch that its columns moved.
		{"steady-unpriced", model.RouteModeOptimal, 0, steady, 0},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := testConfig(g, cat)
			cfg.Mode = leg.mode
			cfg.RouteSeed = 11
			cfg.MaxBatch = leg.maxBatch
			cfg.Lifecycle = LifecycleConfig{IdleEpochs: 2, WarmPool: 1, ColdStartDelay: leg.cold}
			stream := leg.shape.stream(cfg, reqs, reqs[0].Home)

			shared, pl := playEpochs(t, cfg, stream, false, -1)
			fresh, _ := playEpochs(t, cfg, stream, true, -1)
			if err := shared.Result().Diff(fresh.Result()); err != nil {
				t.Fatalf("long-lived evaluator diverges from a fresh one per epoch: %v", err)
			}

			recs := shared.Result().Records
			reacted, faults, deferred, steadyEpochs, quiet := 0, 0, 0, 0, 0
			for e, r := range recs {
				faults += r.FaultEvents
				deferred += r.Deferred
				switch {
				case !r.Incremental:
					reacted++
				case pl.quiet[e]:
					steadyEpochs++
					quiet++
				default:
					steadyEpochs++
				}
			}
			if faults != 2 || recs[leg.shape.down].DownNodes != 1 || recs[leg.shape.up].DownNodes != 0 {
				t.Fatalf("the crash and its heal did not land: %d fault events", faults)
			}
			if (leg.maxBatch > 0) != (deferred > 0) {
				t.Fatalf("MaxBatch=%d deferred %d arrivals", leg.maxBatch, deferred)
			}
			// The point of the binding: workload changes alone do not cost a
			// new evaluator, only faults, cold-set changes and random routing.
			if leg.mode != model.RouteModeRandom && pl.rebinds >= reacted {
				t.Fatalf("%d reacting epochs cost %d re-binds", reacted, pl.rebinds)
			}
			if leg.shape != steady {
				return
			}
			if 2*quiet <= steadyEpochs {
				t.Fatalf("%d of %d steady epochs re-routed nothing and reused the derived columns, want most", quiet, steadyEpochs)
			}
			// Truncate the streams before a quiet epoch whose predecessor was
			// quiet too: the reused delays must come from the daemon's own
			// copy, not from the truncated stream.
			trimAt := -1
			for e := len(recs) - 1; e > 0; e-- {
				if pl.quiet[e] && pl.quiet[e-1] {
					trimAt = e
					break
				}
			}
			if trimAt < 0 {
				t.Fatal("no two consecutive quiet epochs to truncate between")
			}
			shared, pl = playEpochs(t, cfg, stream, false, trimAt)
			fresh, _ = playEpochs(t, cfg, stream, true, trimAt)
			if !pl.quiet[trimAt] {
				t.Fatalf("epoch %d was not quiet after the truncation", trimAt)
			}
			if err := shared.Result().Diff(fresh.Result()); err != nil {
				t.Fatalf("after truncating the delay stream at epoch %d: %v", trimAt, err)
			}
		})
	}
}

// TestDaemonDropsDuplicateArrival: an arrive whose ID is already active is
// dropped at admission — a second copy would survive the request's depart
// and be served for ever.
func TestDaemonDropsDuplicateArrival(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 6, 77)
	d, err := NewDaemon(testConfig(g, cat))
	if err != nil {
		t.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs[:3])...)
	d.Ingest(Event{Slot: 0, Kind: EvArrive, ID: 1, Node: reqs[4].Home, Req: reqs[4]})
	rec, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Arrived != 3 || d.ActiveRequests() != 3 {
		t.Fatalf("arrived=%d active=%d, want the duplicate dropped and uncounted", rec.Arrived, d.ActiveRequests())
	}
	d.Ingest(Event{Slot: 1, Kind: EvArrive, ID: 1, Node: reqs[4].Home, Req: reqs[4]},
		Event{Slot: 1, Kind: EvDepart, ID: 1})
	rec, err = d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Arrived != 0 || rec.Departed != 1 || d.ActiveRequests() != 2 || d.findActive(1) >= 0 {
		t.Fatalf("after the depart: arrived=%d departed=%d active=%d", rec.Arrived, rec.Departed, d.ActiveRequests())
	}
	// Once departed, the ID is free again.
	d.Ingest(Event{Slot: 2, Kind: EvArrive, ID: 1, Node: reqs[4].Home, Req: reqs[4]})
	if rec, err = d.Tick(); err != nil || rec.Arrived != 1 {
		t.Fatalf("a departed ID could not arrive again: %+v, %v", rec, err)
	}
	// A depart frees its ID for an arrival later in the same epoch.
	d.Ingest(Event{Slot: 3, Kind: EvDepart, ID: 1},
		Event{Slot: 3, Kind: EvArrive, ID: 1, Node: reqs[5].Home, Req: reqs[5]})
	if rec, err = d.Tick(); err != nil || rec.Departed != 1 || rec.Arrived != 1 || d.ActiveRequests() != 3 {
		t.Fatalf("a re-arrival after a depart in one epoch: %+v, active=%d, %v", rec, d.ActiveRequests(), err)
	}
	if i := d.findActive(1); i < 0 || d.active[i].Home != reqs[5].Home {
		t.Fatal("the re-arrival did not replace the departed request")
	}
}

// TestAdmissionOrder: one epoch admits its events in ingest order whatever
// slot order they were ingested in — a MaxBatch-deferred arrival goes behind
// an event of the next epoch that was ingested before it, ahead of one
// ingested after — and a late event is admitted by the next Tick.
func TestAdmissionOrder(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 8, 78)
	cfg := testConfig(g, cat)
	cfg.MaxBatch = 1
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrive := func(slot, id int) Event {
		req := reqs[id%len(reqs)]
		return Event{Slot: slot, Kind: EvArrive, ID: id, Node: req.Home, Req: req}
	}
	d.Ingest(arrive(1, 10), arrive(0, 11), arrive(0, 12), arrive(1, 13))
	for e := 0; e < 4; e++ {
		if _, err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	d.Ingest(arrive(0, 14)) // due long ago
	if rec, err := d.Tick(); err != nil || rec.Arrived != 1 {
		t.Fatalf("late event not admitted by the next Tick: %+v, %v", rec, err)
	}
	want := []int{11, 10, 12, 13, 14}
	if d.ActiveRequests() != len(want) {
		t.Fatalf("active = %d, want %d", d.ActiveRequests(), len(want))
	}
	for i, id := range want {
		if d.active[i].ID != id {
			t.Fatalf("admission order %v at %d, want %v", d.active[i].ID, i, want)
		}
	}
}

// TestDaemonEditsAcrossAnEmptyEpoch: an epoch every request left ends
// before the evaluator is handed its edits, which reach it with the next
// epoch's arrivals. The run matches the same daemon made to forget its
// evaluator and use counts before every epoch.
func TestDaemonEditsAcrossAnEmptyEpoch(t *testing.T) {
	g, cat, reqs := testScenario(t, 10, 30, 82)
	cfg := testConfig(g, cat)
	cfg.Lifecycle = LifecycleConfig{IdleEpochs: 2, WarmPool: 1, ColdStartDelay: 0.25}
	move := func(e, id int) Event {
		return Event{Slot: e, Kind: EvMove, ID: id, Node: (reqs[id].Home + 1) % g.N()}
	}
	depart := func(e int, ids ...int) []Event {
		var evs []Event
		for _, id := range ids {
			evs = append(evs, Event{Slot: e, Kind: EvDepart, ID: id})
		}
		return evs
	}
	epochs := [][]Event{
		arrivals(0, 0, reqs[:12]),
		append(append(depart(1, 3), move(1, 5)), arrivals(1, 12, reqs[12:13])...),
		append(depart(2, 0, 7), move(2, 9), move(2, 12)),
		depart(3, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12),
		arrivals(4, 13, reqs[13:20]),
		append(depart(5, 14), move(5, 15)),
		{move(6, 19)},
	}
	run := func(drop bool) *RunResult {
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, evs := range epochs {
			if drop {
				d.de, d.use.stale = nil, true
			}
			d.Ingest(evs...)
			if _, err := d.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.Result().Records[3].Requests; got != 0 {
			t.Fatalf("epoch 3 served %d requests, want none", got)
		}
		return d.Result()
	}
	if err := run(false).Diff(run(true)); err != nil {
		t.Fatalf("a long-lived evaluator diverges after an empty epoch: %v", err)
	}
}

// TestDaemonStaleBindingStillPanics: the evaluator the daemon hands to repair
// keeps its guard — a cold set changed mid-epoch, behind its back, fails
// loudly instead of scoring the repair on stale routes.
func TestDaemonStaleBindingStillPanics(t *testing.T) {
	g, cat, reqs := testScenario(t, 8, 6, 79)
	cfg := testConfig(g, cat)
	cfg.Lifecycle = LifecycleConfig{IdleEpochs: 2, ColdStartDelay: 0.5}
	cfg.Policy = RepairPolicy{Run: func(in *model.Instance, m *chaos.Mask, p model.Placement, rc repair.Config) (*repair.Result, error) {
		in.ColdStart.SetCold(0, 0, !in.ColdStart.IsCold(0, 0))
		return repair.Run(in, m, p, rc), nil
	}}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs[:4])...)
	if _, err := d.Tick(); err != nil { // initial solve: the policy is bypassed
		t.Fatal(err)
	}
	d.Ingest(arrivals(1, 4, reqs[4:5])...)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "stale cold-start binding") {
			t.Fatalf("foreign cold-set write did not panic as a stale binding: %q", msg)
		}
	}()
	d.Tick()
}

// benchDaemon returns a daemon on the given number of nodes serving n
// long-lived requests with the lifecycle on — the serve_steady shape at a
// size a smoke run affords — and the spare requests later arrivals draw from.
func benchDaemon(b testing.TB, nodes, n int) (*Daemon, []msvc.Request) {
	b.Helper()
	g, cat, reqs := testScenario(b, nodes, n+64, 80)
	cfg := testConfig(g, cat)
	cfg.Lifecycle = LifecycleConfig{IdleEpochs: 3, WarmPool: 1, ColdStartDelay: 0.25}
	d, err := NewDaemon(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs[:n])...)
	for e := 0; e < 4; e++ { // solve, warm up, settle the lifecycle
		if _, err := d.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	return d, reqs[n:]
}

// trimHistory bounds what a long benchmark run retains: the record stream
// grows for ever by design (ROADMAP, "a daemon that can run forever"). The
// delay stream is left whole, so a benchmark counts what it really costs: a
// reference per steady epoch, one exact block per evaluated one.
func trimHistory(d *Daemon, i int) {
	if i%1024 == 1023 {
		d.records = d.records[:0]
	}
}

// TestDaemonSteadyTickAllocs gates serve.allocs_per_tick where it is
// deterministic: on BenchmarkDaemonTickSteady's shape a steady epoch
// allocates the record it returns and nothing else — the evaluation is
// republished, the epoch's instance and the lifecycle scratch are kept, and
// the delay stream gains a reference to the last evaluated epoch's block,
// whose list regrows too rarely to count. The record stream is truncated each
// run, so its growth does not count. The count is the same under -race; armed invariants
// re-evaluate every epoch from scratch, so that build skips the gate.
func TestDaemonSteadyTickAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("-tags soclinvariants re-evaluates every epoch from scratch")
	}
	d, _ := benchDaemon(t, 24, 400)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		d.records = d.records[:0]
	})
	if allocs > 1 {
		t.Fatalf("a steady tick allocates %v times, want at most 1 (its record)", allocs)
	}
}

// TestDaemonSteadyTickBytes gates the bytes a steady tick allocates when
// nothing is truncated — its record, the record stream's growth and the
// delay stream's: 200 steady ticks on BenchmarkDaemonTickSteady's shape
// must average at most 1 KiB each. A steady epoch appends a reference to the
// last evaluated epoch's delay block, not a copy of its 400 delays, which
// alone would cost over 3 KiB a tick before any regrowth. -race and armed
// invariants allocate on their own, so both builds skip the gate.
func TestDaemonSteadyTickBytes(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("-race and -tags soclinvariants allocate on their own")
	}
	const ticks = 200
	d, _ := benchDaemon(t, 24, 400)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		rec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Incremental {
			t.Fatalf("epoch %d was not steady: %+v", rec.Epoch, rec)
		}
	}
	runtime.ReadMemStats(&after)
	perTick := float64(after.TotalAlloc-before.TotalAlloc) / ticks
	if perTick > 1024 {
		t.Fatalf("a steady tick allocates %.0f bytes on average, want at most 1024", perTick)
	}
	if got, want := d.Result().AllDelays.Len(), 400*(ticks+4); got != want {
		t.Fatalf("the delay stream holds %d delays, want %d", got, want)
	}
	t.Logf("%.0f bytes a steady tick", perTick)
}

// BenchmarkDaemonTickSteady: an epoch in which nothing changed, at 24 and at
// 96 nodes. A steady tick that scans every (service, node) cell grows with
// the node count; one that costs what changed does not.
func BenchmarkDaemonTickSteady(b *testing.B) {
	for _, nodes := range []int{24, 96} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			d, _ := benchDaemon(b, nodes, 400)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Tick(); err != nil {
					b.Fatal(err)
				}
				trimHistory(d, i)
			}
		})
	}
}

// reactEpoch ingests serve_steady's small change for the daemon's next
// epoch — one depart, one arrive drawn from spare, two moves — varied by i.
func reactEpoch(d *Daemon, spare []msvc.Request, i int) {
	e, nodes := d.Epoch(), d.cfg.Graph.N()
	req := spare[i%len(spare)]
	a, c := d.active[(7*i)%len(d.active)], d.active[(13*i+5)%len(d.active)]
	d.Ingest(
		Event{Slot: e, Kind: EvDepart, ID: d.active[(3*i)%len(d.active)].ID},
		Event{Slot: e, Kind: EvArrive, ID: 1_000_000 + i, Node: req.Home, Req: req},
		Event{Slot: e, Kind: EvMove, ID: a.ID, Node: (a.Home + 1) % nodes},
		Event{Slot: e, Kind: EvMove, ID: c.ID, Node: (c.Home + 1) % nodes},
	)
}

// TestDaemonReactTickAllocs gates what a reacting epoch allocates on
// BenchmarkDaemonTickReact's shape, at 400 and at 1 600 requests: the edits
// reach the evaluator as edits, the use counts follow the routes that moved,
// and a repair that finds nothing damaged copies no placement, so the count
// is the same at both sizes and must stay at most 12. -race adds a few
// allocations and armed invariants recount from scratch, so both builds skip
// the gate.
func TestDaemonReactTickAllocs(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("-race and -tags soclinvariants allocate on their own")
	}
	for _, n := range []int{400, 1600} {
		d, spare := benchDaemon(t, 24, n)
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			reactEpoch(d, spare, i)
			i++
			rec, err := d.Tick()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Incremental || rec.Departed != 1 || rec.Arrived != 1 {
				t.Fatalf("epoch %d did not react to its edits: %+v", rec.Epoch, rec)
			}
			d.records = d.records[:0]
		})
		if d.evalIn.Workload != d.de.Workload() {
			t.Fatal("the epoch's instance does not carry the evaluator's own workload")
		}
		if allocs > 12 {
			t.Fatalf("a reacting tick over %d requests allocates %v times, want at most 12", n, allocs)
		}
		t.Logf("%d requests: %v allocations a reacting tick", n, allocs)
	}
}

// TestDaemonReactTickBytes gates the bytes a reacting epoch allocates on
// BenchmarkDaemonTickReact's shape — its record and the record stream's
// growth included — at 400 and at 1 600 requests: at most 8·n + 4 KiB on
// average over 50 epochs. Repair and the daemon read the bound evaluator and
// materialize no evaluation of the active set, so the epoch's block of
// delays, 8 bytes a served request, is the only allocation that grows with
// the requests. -race and armed invariants allocate on their own, so both
// builds skip the gate.
func TestDaemonReactTickBytes(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("-race and -tags soclinvariants allocate on their own")
	}
	const ticks = 50
	for _, n := range []int{400, 1600} {
		d, spare := benchDaemon(t, 24, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ticks; i++ {
			reactEpoch(d, spare, i)
			rec, err := d.Tick()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Incremental || rec.Departed != 1 || rec.Arrived != 1 {
				t.Fatalf("epoch %d did not react to its edits: %+v", rec.Epoch, rec)
			}
		}
		runtime.ReadMemStats(&after)
		perTick := float64(after.TotalAlloc-before.TotalAlloc) / ticks
		if limit := float64(8*n + 4096); perTick > limit {
			t.Fatalf("a reacting tick over %d requests allocates %.0f bytes on average, want at most %.0f", n, perTick, limit)
		}
		t.Logf("%d requests: %.0f bytes a reacting tick", n, perTick)
	}
}

// BenchmarkDaemonTickReact: an epoch with serve_steady's small change — one
// depart, one arrive, two moves — at the default 24 nodes among 400 requests,
// and at serve_steady's own 60 nodes among 1 000.
func BenchmarkDaemonTickReact(b *testing.B) {
	for _, sh := range []struct{ nodes, n int }{{24, 400}, {60, 1000}} {
		b.Run(fmt.Sprintf("nodes=%d,n=%d", sh.nodes, sh.n), func(b *testing.B) {
			d, spare := benchDaemon(b, sh.nodes, sh.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reactEpoch(d, spare, i)
				if _, err := d.Tick(); err != nil {
					b.Fatal(err)
				}
				trimHistory(d, i)
			}
		})
	}
}

// BenchmarkDaemonTickFault: serve_churn's reacting epoch — 24 nodes, 60
// users, the default AutoPolicy — where every epoch crashes a node or
// recovers the one crashed before it. Node 0 stays down throughout, so no
// epoch's mask is pristine and each one rebuilds the masked substrate.
func BenchmarkDaemonTickFault(b *testing.B) {
	g, cat, reqs := testScenario(b, 24, 60, 82)
	d, err := NewDaemon(testConfig(g, cat))
	if err != nil {
		b.Fatal(err)
	}
	d.Ingest(arrivals(0, 0, reqs)...)
	d.Ingest(Event{Slot: 0, Kind: EvFault, Fault: chaos.Event{Kind: chaos.NodeCrash, Node: 0}})
	if _, err := d.Tick(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := chaos.NodeCrash
		if i%2 == 1 {
			kind = chaos.NodeRecover
		}
		node := 1 + (i/2)%(g.N()-1)
		d.Ingest(Event{Slot: d.Epoch(), Kind: EvFault, Fault: chaos.Event{Kind: kind, Node: node}})
		if _, err := d.Tick(); err != nil {
			b.Fatal(err)
		}
		trimHistory(d, i)
	}
}

// BenchmarkDaemonRunScript: a script ingested whole before the first Tick —
// 40 requests, 3000 epochs, one depart and one arrive every tenth. Admission
// must cost the events, not events × epochs.
func BenchmarkDaemonRunScript(b *testing.B) {
	g, cat, reqs := testScenario(b, 8, 40+300, 81)
	const base, epochs = 40, 3000
	s := &Script{Meta: Meta{NumSlots: epochs}, Events: arrivals(0, 0, reqs[:base])}
	for e, next := 10, base; e < epochs; e, next = e+10, next+1 {
		s.Events = append(s.Events, Event{Slot: e, Kind: EvDepart, ID: next - base})
		s.Events = append(s.Events, arrivals(e, next, reqs[next:next+1])...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewDaemon(testConfig(g, cat))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.RunScript(s); err != nil {
			b.Fatal(err)
		}
	}
}
