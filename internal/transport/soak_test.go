package transport_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
)

// soakStream builds a small faulted scenario and its event stream.
func soakStream(t *testing.T, nodes, users, slots int, seed int64) (sim.Config, *serve.Script) {
	t.Helper()
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := sim.DefaultConfig(g, cat, users, seed)
	cfg.DurationMinutes = float64(slots) * cfg.SlotMinutes
	scfg := chaos.DefaultScheduleConfig()
	scfg.NodeFailProb = 0.15
	scfg.LinkFailProb = 0.15
	scfg.StorageShrinkProb = 0.075
	scfg.MinNodesUp = nodes / 2
	cfg.Faults = chaos.Generate(g, slots, scfg, seed)
	cfg.Policy = sim.PolicyRepair
	s, err := sim.EventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Meta.Radius = 0.4
	s.Meta.TopoSeed = seed
	s.Meta.CatSeed = seed
	return cfg, s
}

// sameStream asserts two scripts carry the same events in the same
// slot-grouped order (the canonical session order).
func sameStream(t *testing.T, want, got *serve.Script) {
	t.Helper()
	fa, err := transport.BuildSession(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := transport.BuildSession(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != len(fb) {
		t.Fatalf("session lengths differ: %d vs %d frames", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Type != fb[i].Type || !bytes.Equal(fa[i].Body, fb[i].Body) {
			t.Fatalf("session frame %d differs:\n  sent %q\n  recorded %q", i, fa[i].Body, fb[i].Body)
		}
	}
}

// checkGoroutines asserts the goroutine count returns to the baseline after
// every server and client has shut down.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSoakReliableChaos is the transport soak: a chaos-impaired reliable
// session over a real loopback socket must (1) admit every event exactly
// once, in order — the recorded stream equals the sent script; (2) replay
// bitwise against the batch simulator; (3) leak no goroutines.
func TestSoakReliableChaos(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg, s := soakStream(t, 10, 8, 8, 3)
	res, err := sim.Run(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.Listen("tcp", "127.0.0.1:0", transport.Config{
		Factory: func(serve.Meta) (serve.Config, error) {
			return sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig())), nil
		},
		Ordered: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	cli, err := transport.Dial("tcp", srv.Addr().String(), transport.ClientConfig{
		Reliable: true,
		Seed:     3,
		Chaos: &chaos.LinkConfig{
			Seed:  stats.SplitSeed(3, "transport/chaos"),
			Drop:  0.20,
			Dup:   0.10,
			Delay: 0.10,
		},
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	var rep *transport.Report
	bounded(t, "the session", func() {
		rep, err = cli.Run(s)
		cli.Close()
		srv.Close()
	})
	if err != nil {
		t.Fatalf("reliable session failed: %v (report %+v)", err, rep)
	}
	t.Logf("client report: retransmits=%d accepted=%d shed=%d link=%+v", rep.Retransmits, rep.Accepted, rep.Shed, rep.Link)
	eng := srv.Engine()
	if !eng.Finished() || eng.RunErr() != nil {
		t.Fatalf("session not finished cleanly: finished=%v err=%v", eng.Finished(), eng.RunErr())
	}
	st := eng.Stats()
	if st.Admitted != len(s.Events) || st.Shed() != 0 {
		t.Fatalf("admitted %d/%d, shed %d — reliable session must admit everything exactly once",
			st.Admitted, len(s.Events), st.Shed())
	}
	if rep.Link.Dropped == 0 {
		t.Fatal("chaos injected no drops — the soak exercised nothing")
	}
	if rep.Retransmits == 0 {
		t.Fatal("no retransmissions despite drops")
	}
	sameStream(t, s, eng.Recorded())
	if err := res.Diff(eng.Result()); err != nil {
		t.Fatalf("wire replay diverged from sim.Run: %v", err)
	}
	checkGoroutines(t, before)
}

// TestSoakOpenLoopHardened drives the shedding regime: unordered admission
// with deadlines, a bounded queue, capacity debt, and the breaker. The
// session must finish without a daemon error and account for every received
// event as either admitted or shed.
func TestSoakOpenLoopHardened(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg, s := soakStream(t, 10, 8, 8, 5)
	cc := model.DefaultCloudConfig()
	srv, err := transport.Listen("tcp", "127.0.0.1:0", transport.Config{
		Factory: func(serve.Meta) (serve.Config, error) {
			sc := sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
			sc.Replan = false
			sc.Policy = nil // default AutoPolicy, wrapped by the guard
			return sc, nil
		},
		Ordered:       false,
		DeadlineSlots: 1,
		MaxQueue:      32,
		Capacity:      8,
		Breaker:       transport.BreakerConfig{Enabled: true, TripAfter: 2, Cooldown: 2, CostBudget: 40},
		Ladder: transport.LadderConfig{
			CloudTransfer:  cc.TransferCost,
			CloudCompute:   cc.Compute,
			CloudColdStart: 0.25,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	cli, err := transport.Dial("tcp", srv.Addr().String(), transport.ClientConfig{
		Reliable: false,
		Seed:     5,
		Chaos: &chaos.LinkConfig{
			Seed:  stats.SplitSeed(5, "transport/chaos"),
			Drop:  0.30,
			Dup:   0.10,
			Delay: 0.15,
		},
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	var rep *transport.Report
	bounded(t, "the session", func() {
		rep, err = cli.Run(s)
		cli.Close()
		srv.Close()
	})
	if err != nil {
		t.Fatalf("open-loop session failed: %v (report %+v)", err, rep)
	}
	t.Logf("client report: retransmits=%d accepted=%d shed=%d link=%+v", rep.Retransmits, rep.Accepted, rep.Shed, rep.Link)
	eng := srv.Engine()
	if !eng.Finished() || eng.RunErr() != nil {
		t.Fatalf("session not finished cleanly: finished=%v err=%v", eng.Finished(), eng.RunErr())
	}
	st := eng.Stats()
	if st.Admitted+st.Shed() != st.Events {
		t.Fatalf("event accounting broken: admitted %d + shed %d != received %d",
			st.Admitted, st.Shed(), st.Events)
	}
	if st.Admitted == 0 {
		t.Fatal("open-loop session admitted nothing")
	}
	checkGoroutines(t, before)
}

// TestPlaySessionDeterministic pins the in-process path: identical frames,
// chaos, and engine config must produce identical stats, records, and
// summaries — the property the ext_overload sweep rests on.
func TestPlaySessionDeterministic(t *testing.T) {
	cfg, s := soakStream(t, 8, 6, 6, 7)
	frames, err := transport.BuildSession(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *transport.Engine {
		eng, err := transport.PlaySession(transport.Config{
			Factory: func(serve.Meta) (serve.Config, error) {
				sc := sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
				sc.Replan = false
				sc.Policy = nil
				return sc, nil
			},
			Ordered:       false,
			DeadlineSlots: 1,
			MaxQueue:      16,
			Capacity:      6,
			Breaker:       transport.BreakerConfig{Enabled: true, TripAfter: 2, CostBudget: 30},
		}, frames, &chaos.LinkConfig{Seed: 42, Drop: 0.25, Dup: 0.10, Delay: 0.20})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := run(), run()
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge:\n  %+v\n  %+v", a.Stats(), b.Stats())
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summaries diverge:\n  %s\n  %s", a.Summary(), b.Summary())
	}
	var ba, bb bytes.Buffer
	if err := serve.WriteScript(&ba, a.Recorded()); err != nil {
		t.Fatal(err)
	}
	if err := serve.WriteScript(&bb, b.Recorded()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("recorded streams diverge between identical runs")
	}
}

// httpFrontend builds a loopback-HTTP frontend over a small faulted
// scenario, with the session's frames and the number of events it carries.
func httpFrontend(t *testing.T) (*transport.HTTPFrontend, []transport.Frame, int) {
	t.Helper()
	cfg, s := soakStream(t, 8, 6, 6, 9)
	frames, err := transport.BuildSession(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	fe := transport.NewHTTPFrontend(transport.Config{
		Factory: func(serve.Meta) (serve.Config, error) {
			return sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig())), nil
		},
		Ordered: true,
	})
	return fe, frames, len(s.Events)
}

// playHTTPSession posts a whole session in one request and checks that the
// frontend served it: finished, every event admitted, a summary available.
func playHTTPSession(t *testing.T, url string, fe *transport.HTTPFrontend, frames []transport.Frame, events int) {
	t.Helper()
	var body bytes.Buffer
	for i := range frames {
		body.Write(transport.Encode(frames[i]))
	}
	resp, err := http.Post(url+"/v1/frames", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/frames: %s", resp.Status)
	}
	eng := fe.Engine()
	if !eng.Finished() || eng.RunErr() != nil {
		t.Fatalf("HTTP session not finished: finished=%v err=%v", eng.Finished(), eng.RunErr())
	}
	if st := eng.Stats(); st.Admitted != events {
		t.Fatalf("HTTP session admitted %d/%d", st.Admitted, events)
	}
	sum, err := http.Get(url + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	sum.Body.Close()
	if sum.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/summary: %s", sum.Status)
	}
}

// TestHTTPFrontend pushes a full session through the loopback-HTTP surface.
func TestHTTPFrontend(t *testing.T) {
	fe, frames, events := httpFrontend(t)
	hs := httptest.NewServer(fe)
	defer hs.Close()
	playHTTPSession(t, hs.URL, fe, frames, events)
}

// TestHTTPFrontendMalformedFrame posts a zero-length frame: the request is a
// 400, and the handler lets go of the engine's lock on that path, so a full
// session on the same frontend is served afterwards.
func TestHTTPFrontendMalformedFrame(t *testing.T) {
	fe, frames, events := httpFrontend(t)
	hs := httptest.NewServer(fe)
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/frames", "application/octet-stream", bytes.NewReader([]byte{0}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /v1/frames with a zero-length frame: %s, want 400", resp.Status)
	}
	// Probe the lock outside a handler first: a lock left held would block
	// the session's request, and hs.Close waits for every open request.
	done := make(chan bool, 1)
	go func() { done <- fe.SessionDone() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the malformed-frame path left the frontend's lock held")
	}
	playHTTPSession(t, hs.URL, fe, frames, events)
}
