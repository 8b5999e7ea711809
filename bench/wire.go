package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/transport"
)

// wireEpoch is one epoch of a session, ready for the socket: the epoch's
// event frames and the tick that closes it, already encoded.
type wireEpoch struct {
	events  [][]byte
	seqs    []uint64
	tick    []byte
	tickSeq uint64
}

// wireSession is a script rendered to frames and cut into the closed loop's
// windows.
type wireSession struct {
	frames    []transport.Frame
	hello     []byte
	epochs    []wireEpoch
	finish    []byte
	finishSeq uint64
	numEvents int
}

func buildWireSession(s *serve.Script) (*wireSession, error) {
	frames, err := transport.BuildSession(s, 0)
	if err != nil {
		return nil, err
	}
	ws := &wireSession{frames: frames}
	var cur wireEpoch
	for _, fr := range frames {
		b := transport.Encode(fr)
		switch fr.Type {
		case transport.MsgHello:
			ws.hello = b
		case transport.MsgEvent:
			cur.events = append(cur.events, b)
			cur.seqs = append(cur.seqs, fr.Seq)
			ws.numEvents++
		case transport.MsgTick:
			cur.tick, cur.tickSeq = b, fr.Seq
			ws.epochs = append(ws.epochs, cur)
			cur = wireEpoch{}
		case transport.MsgFinish:
			ws.finish, ws.finishSeq = b, fr.Seq
		}
	}
	return ws, nil
}

// decodeFrame parses one encoded frame without a reader, for the in-process
// replays; the socket path goes through transport.ReadFrame.
func decodeFrame(b []byte) (transport.Frame, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) != n {
		return transport.Frame{}, fmt.Errorf("bench: bad frame length prefix")
	}
	return transport.ParsePayload(b[k:])
}

// framedClient is the bench's own client. The stock transport.Client
// pipelines the whole script and then sleep-polls for acks (hundreds of
// retransmits on a clean wire), so it cannot time a frame; this one runs a
// closed loop with a window of one epoch over one connection.
type framedClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func dialFramed(network, addr string) (*framedClient, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &framedClient{conn: conn,
		br: bufio.NewReaderSize(conn, 64*1024), bw: bufio.NewWriterSize(conn, 64*1024)}, nil
}

func (c *framedClient) write(b []byte) error {
	_, err := c.bw.Write(b)
	return err
}

// readUntil reads frames until the ack (or, for wantResult, the result) of
// seq arrives, handing every other ack to onAck. A MsgError ends the session.
func (c *framedClient) readUntil(seq uint64, wantResult bool, onAck func(seq uint64, status byte)) error {
	for {
		fr, err := transport.ReadFrame(c.br)
		if err != nil {
			return err
		}
		switch fr.Type {
		case transport.MsgAck:
			status, _, err := transport.ParseAckBody(fr.Body)
			if err != nil {
				return err
			}
			if !wantResult && fr.Seq == seq && status == transport.StatusOK {
				return nil
			}
			if onAck != nil {
				onAck(fr.Seq, status)
			}
		case transport.MsgResult:
			if wantResult && fr.Seq == seq {
				return nil
			}
		case transport.MsgError:
			return fmt.Errorf("server error: %s", fr.Body)
		}
	}
}

// roundTrip sends a control frame and waits for its answer.
func (c *framedClient) roundTrip(b []byte, seq uint64, wantResult bool, onAck func(uint64, byte)) error {
	if err := c.write(b); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.readUntil(seq, wantResult, onAck)
}

// wireScenario is one generated script, its session frames, and the wiring
// of the daemon that serves it.
type wireScenario struct {
	script  *serve.Script
	session *wireSession
	daemon  func() serve.Config
}

// sessionEnd is what a finished socket session left behind.
type sessionEnd struct {
	engine   *transport.Engine
	link     chaos.LinkStats
	accepted int
	shed     int
}

// wireRunner plays sessions against one transport.Server over one
// connection. A pass plays every scenario's session once; the server starts
// a fresh engine, and through the factory a fresh daemon, at each hello.
type wireRunner struct {
	name      string
	network   string
	tcfg      transport.Config
	linkCfg   *chaos.LinkConfig // event frames pass this link; control frames do not
	scenarios []wireScenario

	sockDir string
	srv     *transport.Server
	served  chan error
	cli     *framedClient
	helloed bool // scenario 0's session is open and has seen no event yet

	last []sessionEnd // the last pass's sessions, one per scenario
}

// passTimeout bounds one wire session: a lost frame must fail the run, not
// hang it.
const passTimeout = 90 * time.Second

func (r *wireRunner) listen() error {
	addr := "127.0.0.1:0"
	if r.network == "unix" {
		// Relative to the working directory, so the socket stays inside the
		// checkout and its path stays short.
		dir, err := os.MkdirTemp(".", ".benchsock-")
		if err != nil {
			return err
		}
		r.sockDir = dir
		addr = filepath.Join(dir, "s")
	}
	srv, err := transport.Listen(r.network, addr, r.tcfg)
	if err != nil {
		return err
	}
	r.srv = srv
	r.served = make(chan error, 1)
	go func() { r.served <- srv.Serve() }()
	cli, err := dialFramed(r.network, srv.Addr().String())
	if err != nil {
		return err
	}
	r.cli = cli
	if err := r.hello(r.scenarios[0].session); err != nil {
		return err
	}
	r.helloed = true
	return nil
}

func (r *wireRunner) hello(ws *wireSession) error {
	if err := r.cli.conn.SetDeadline(time.Now().Add(passTimeout)); err != nil {
		return err
	}
	if err := r.cli.roundTrip(ws.hello, 0, false, nil); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	return nil
}

// close stops the client, the server and its accept loop, and waits for them.
func (r *wireRunner) close() error {
	var first error
	if r.cli != nil {
		r.cli.conn.Close()
		r.cli = nil
	}
	if r.srv != nil {
		first = r.srv.Close()
		if err := <-r.served; err != nil && first == nil {
			first = err
		}
		r.srv = nil
	}
	if r.sockDir != "" {
		if err := os.RemoveAll(r.sockDir); err != nil && first == nil {
			first = err
		}
		r.sockDir = ""
	}
	return first
}

func (r *wireRunner) pass(tr *tracer) (*pass, error) {
	total := &pass{}
	r.last = r.last[:0]
	for i := range r.scenarios {
		if i > 0 || !r.helloed {
			if err := r.hello(r.scenarios[i].session); err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
		}
		r.helloed = false
		p, end, err := r.playSession(r.scenarios[i].session, tr)
		if err != nil {
			// The session is broken; nothing later on this connection can
			// be trusted, so the run stops here.
			return nil, fmt.Errorf("%s: scenario %d: %w", r.name, i, err)
		}
		total.merge(p)
		r.last = append(r.last, end)
	}
	total.objective /= float64(len(r.scenarios))
	if tr != nil {
		if err := r.traceLayers(total, tr); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// playSession plays one session over the socket in a closed loop: write the
// epoch's event frames and its tick, flush, read until the tick's ack.
func (r *wireRunner) playSession(ws *wireSession, tr *tracer) (*pass, sessionEnd, error) {
	p := &pass{ops: make([]float64, 0, len(ws.epochs)), acks: make([]float64, 0, ws.numEvents)}
	var end sessionEnd
	sentAt := make([]time.Time, len(ws.frames))
	final := make([]byte, len(ws.frames)) // accepted or shed, per event seq
	onAck := func(seq uint64, status byte) {
		if seq >= uint64(len(final)) || final[seq] != 0 {
			return
		}
		switch status {
		case transport.StatusAccepted:
			end.accepted++
		case transport.StatusShed:
			end.shed++
		default:
			return // a duplicate's ack says nothing about the frame's fate
		}
		final[seq] = status
		p.acks = append(p.acks, float64(time.Since(sentAt[seq]))/1e3)
	}
	var link *chaos.Link
	sendEvent := r.cli.write
	if r.linkCfg != nil {
		link = chaos.NewLink(*r.linkCfg, r.cli.write)
		sendEvent = link.Send
	}

	start := time.Now()
	for e := range ws.epochs {
		ep := &ws.epochs[e]
		tr.nextOp()
		id := tr.begin("wire.epoch")
		for i, b := range ep.events {
			sentAt[ep.seqs[i]] = time.Now()
			if err := sendEvent(b); err != nil {
				return nil, end, err
			}
		}
		if link != nil {
			if err := link.Flush(); err != nil {
				return nil, end, err
			}
		}
		t0 := time.Now()
		if err := r.cli.roundTrip(ep.tick, ep.tickSeq, false, onAck); err != nil {
			return nil, end, err
		}
		p.ops = append(p.ops, float64(time.Since(t0))/1e3)
		tr.end(id)
	}
	if err := r.cli.roundTrip(ws.finish, ws.finishSeq, true, onAck); err != nil {
		return nil, end, err
	}
	p.wall = time.Since(start)

	// The server has answered the finish frame and is blocked reading the
	// next one, and Engine() takes the server's mutex, so the engine is
	// quiescent and safely published here.
	end.engine = r.srv.Engine()
	if link != nil {
		end.link = link.Stats()
	}
	if end.engine.RunErr() != nil {
		p.opErrors++
	}
	res := end.engine.Result()
	recordOutputs(p, res.Records)
	// For the wire the unit of failure is the event frame: shed by the
	// server, never acknowledged (lost on the link), or admitted but left
	// unserved at the end of the session.
	p.events = end.accepted
	p.attempted = ws.numEvents
	p.failed = ws.numEvents - end.accepted
	if res.Final != nil {
		p.failed += res.Final.Unserved()
	}
	return p, end, nil
}

// replayEngine feeds a session to a fresh in-process transport.Engine, the
// way the socket server would see it (event frames through the same seeded
// link), with spans around HandleFrame and around the daemon hooks beneath
// it. It returns the engine and the handling time of each epoch in µs.
func (r *wireRunner) replayEngine(ws *wireSession, tr *tracer) (*transport.Engine, []float64, error) {
	cfg := r.tcfg
	factory := cfg.Factory
	cfg.Factory = func(m serve.Meta) (serve.Config, error) {
		sc, err := factory(m)
		return withSpans(sc, tr), err
	}
	eng := transport.NewEngine(cfg)
	handle := func(name string, b []byte) error {
		fr, err := decodeFrame(b)
		if err != nil {
			return err
		}
		id := tr.begin(name)
		eng.HandleFrame(fr)
		tr.end(id)
		return nil
	}
	handleEvent := func(b []byte) error { return handle("transport.handle_event", b) }
	sendEvent := handleEvent
	var link *chaos.Link
	if r.linkCfg != nil {
		link = chaos.NewLink(*r.linkCfg, handleEvent)
		sendEvent = link.Send
	}
	if err := handle("transport.handle_hello", ws.hello); err != nil {
		return nil, nil, err
	}
	perEpoch := make([]float64, 0, len(ws.epochs))
	for e := range ws.epochs {
		ep := &ws.epochs[e]
		tr.nextOp()
		t0 := time.Now()
		for _, b := range ep.events {
			if err := sendEvent(b); err != nil {
				return nil, nil, err
			}
		}
		if link != nil {
			if err := link.Flush(); err != nil {
				return nil, nil, err
			}
		}
		if err := handle("transport.handle_tick", ep.tick); err != nil {
			return nil, nil, err
		}
		perEpoch = append(perEpoch, float64(time.Since(t0))/1e3)
	}
	if err := handle("transport.handle_finish", ws.finish); err != nil {
		return nil, nil, err
	}
	return eng, perEpoch, eng.RunErr()
}

// traceLayers attributes the socket pass p just measured. The engine and the
// daemon are re-run in process on the same frames: what the socket round trip
// costs beyond the in-process engine is the socket's share, and what it costs
// beyond the bare daemon is the whole transport layer's.
func (r *wireRunner) traceLayers(p *pass, tr *tracer) error {
	var handleUS, daemonUS []float64
	var recs []serve.EpochRecord
	for i, sc := range r.scenarios {
		eng, us, err := r.replayEngine(sc.session, tr)
		if err != nil {
			return fmt.Errorf("%s: scenario %d: in-process engine replay: %w", r.name, i, err)
		}
		handleUS = append(handleUS, us...)
		recs = append(recs, eng.Result().Records...)
		if r.tcfg.Ordered {
			// Every frame is admitted in order, so the bare daemon can be
			// driven over the same script epoch by epoch.
			dp, _, _, err := runDaemon(sc.daemon(), byEpoch(sc.script), nil)
			if err != nil {
				return fmt.Errorf("%s: scenario %d: in-process daemon replay: %w", r.name, i, err)
			}
			daemonUS = append(daemonUS, dp.ops...)
		}
	}
	lt := selfTimes(tr.spans)
	p.layers = daemonLayers(lt, recs, nil)
	delete(p.layers, "serve.ingest_us") // the engine ingests; the bench has no seam there
	delete(p.layers, "serve.tick_self_us")
	p.layers["transport.handle_event_us"] = lt["transport.handle_event"].meanUS()
	p.layers["transport.handle_tick_us"] = lt["transport.handle_tick"].meanUS()
	p.layers["transport.socket_overhead_us"] = median(diff(p.ops, handleUS))
	if daemonUS != nil {
		self := median(diff(p.ops, daemonUS))
		p.layers["transport.self_us"] = self
		if rtt := quantile(p.ops, 0.5); rtt > 0 {
			p.layers["transport.self_share"] = self / rtt
		}
	}

	sum := func(name string, f func(sessionEnd) int) {
		for _, end := range r.last {
			p.layers[name] += float64(f(end))
		}
	}
	sum("transport.duplicates", func(e sessionEnd) int { return e.engine.Stats().Duplicates })
	sum("transport.shed_deadline", func(e sessionEnd) int { return e.engine.Stats().ShedDeadline })
	sum("transport.shed_queue", func(e sessionEnd) int { return e.engine.Stats().ShedQueue })
	sum("transport.shed_overload", func(e sessionEnd) int { return e.engine.Stats().ShedOverload })
	sum("transport.late_admits", func(e sessionEnd) int { return e.engine.Stats().LateAdmits })
	p.layers["transport.wait_p99_epochs"] = 0
	for _, end := range r.last { // the worst session's 99th percentile wait
		p.layers["transport.wait_p99_epochs"] = math.Max(p.layers["transport.wait_p99_epochs"],
			float64(end.engine.WaitPercentile(0.99)))
	}
	if r.tcfg.Breaker.Enabled {
		sum("transport.breaker_trips", func(e sessionEnd) int { return e.engine.Breaker().Trips() })
		sum("transport.degraded_epochs", func(e sessionEnd) int { return e.engine.Guard().DegradedEpochs })
		sum("transport.offload_epochs", func(e sessionEnd) int { return e.engine.Guard().OffloadEpochs })
	}
	if r.linkCfg != nil {
		sum("chaos.link.dropped", func(e sessionEnd) int { return e.link.Dropped })
		sum("chaos.link.duplicated", func(e sessionEnd) int { return e.link.Duplicated })
		sum("chaos.link.delayed", func(e sessionEnd) int { return e.link.Delayed })
	}
	return nil
}

// diff returns a[i] − b[i] over the common prefix.
func diff(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

// probe prices the codecs on their own: the event text codec over the
// scripts' events, the frame codec over the sessions' frames.
func (r *wireRunner) probe() (map[string]float64, error) {
	var evs []serve.Event
	var frames []transport.Frame
	for _, sc := range r.scenarios {
		evs = append(evs, sc.script.Events...)
		frames = append(frames, sc.session.frames...)
	}
	lines := make([]string, len(evs))
	var format, parse, encode, decode []float64
	var stream []byte
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := range evs {
			line, err := serve.FormatEvent(&evs[i])
			if err != nil {
				return nil, err
			}
			lines[i] = line
		}
		format = append(format, float64(time.Since(t0))/float64(len(evs)))

		t0 = time.Now()
		for _, line := range lines {
			if _, err := serve.ParseEventLine(line); err != nil {
				return nil, err
			}
		}
		parse = append(parse, float64(time.Since(t0))/float64(len(evs)))

		stream = stream[:0]
		t0 = time.Now()
		for _, fr := range frames {
			stream = append(stream, transport.Encode(fr)...)
		}
		encode = append(encode, float64(time.Since(t0))/float64(len(frames)))

		br := bufio.NewReader(bytes.NewReader(stream))
		t0 = time.Now()
		for range frames {
			if _, err := transport.ReadFrame(br); err != nil {
				return nil, err
			}
		}
		decode = append(decode, float64(time.Since(t0))/float64(len(frames)))
	}
	return map[string]float64{
		"serve.format_event_ns": median(format),
		"serve.parse_event_ns":  median(parse),
		"transport.encode_ns":   median(encode),
		"transport.decode_ns":   median(decode),
		"transport.frame_bytes": float64(len(stream)) / float64(len(frames)),
	}, nil
}

func (r *wireRunner) check() error {
	if len(r.last) != len(r.scenarios) {
		return fmt.Errorf("%s: %d of %d sessions ran", r.name, len(r.last), len(r.scenarios))
	}
	for i, end := range r.last {
		if err := r.checkSession(r.scenarios[i], end); err != nil {
			return fmt.Errorf("%s: scenario %d: %w", r.name, i, err)
		}
	}
	return nil
}

func (r *wireRunner) checkSession(sc wireScenario, end sessionEnd) error {
	eng := end.engine
	if err := eng.RunErr(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if !eng.Finished() {
		return fmt.Errorf("session did not finish")
	}
	if st := eng.Stats(); st.Admitted != end.accepted || st.Shed() != end.shed {
		return fmt.Errorf("client saw %d accepted / %d shed, engine counted %d / %d",
			end.accepted, end.shed, st.Admitted, st.Shed())
	}
	if !r.tcfg.Ordered {
		return nil
	}

	// An ordered session on a clean wire must record exactly the script that
	// was sent, and serve it exactly as the bare daemon does.
	var sent, got bytes.Buffer
	if err := serve.WriteScript(&sent, sc.script); err != nil {
		return err
	}
	if err := serve.WriteScript(&got, eng.Recorded()); err != nil {
		return err
	}
	if !bytes.Equal(sent.Bytes(), got.Bytes()) {
		return fmt.Errorf("recorded stream differs from the sent script (%d vs %d events)",
			len(eng.Recorded().Events), len(sc.script.Events))
	}
	_, d, _, err := runDaemon(sc.daemon(), byEpoch(sc.script), nil)
	if err != nil {
		return fmt.Errorf("in-process daemon: %w", err)
	}
	want, have := d.Result().Records, eng.Result().Records
	if len(want) != len(have) {
		return fmt.Errorf("wire served %d epochs, in-process daemon %d", len(have), len(want))
	}
	for e := range want {
		if math.Float64bits(want[e].AvgDelay) != math.Float64bits(have[e].AvgDelay) ||
			math.Float64bits(want[e].Cost) != math.Float64bits(have[e].Cost) {
			return fmt.Errorf("epoch %d: wire avg delay %v cost %v, in-process %v %v",
				e, have[e].AvgDelay, have[e].Cost, want[e].AvgDelay, want[e].Cost)
		}
	}
	return nil
}

// ---- the two wire workloads ----

const (
	orderedScenarios = 16
	orderedNodes     = 12
	orderedUsers     = 15
	orderedEpochs    = 600 // per scenario: 9600 epochs a pass

	// wire_overload is ext_overload's top cell (12 slots there) stretched to
	// 50 epochs, forty-eight times over. One session cannot be stretched much
	// further: the lossy link drops a quarter of the departs, those requests
	// stay active for good, the active set grows by about six requests an
	// epoch and every reaction with it — 200 epochs take under a second, 1700
	// take over three minutes. And one session is not enough: when the
	// breaker trips and what the link drops differ so much from seed to seed
	// that a single session's latencies move by half.
	overloadScenarios = 48
	overloadNodes     = 10
	overloadUsers     = 24
	overloadEpochs    = 50 // per session: 2400 epochs a pass
)

// wireScenarioSpec sizes the scenarios of a wire workload.
type wireScenarioSpec struct {
	count, nodes, users, epochs int
	nodeFail, linkFail          float64
}

func newWireRunner(name, network string, tcfg transport.Config, linkCfg *chaos.LinkConfig,
	spec wireScenarioSpec, seed int64, tr *tracer) (runner, error) {
	r := &wireRunner{name: name, network: network, tcfg: tcfg, linkCfg: linkCfg}
	// A session names its scenario by the seed in its hello meta line; the
	// server's factory builds that scenario's daemon.
	bySeed := make(map[int64]func() serve.Config)
	for i := 0; i < spec.count; i++ {
		s := scenarioSeed(seed, name, i)
		cfg, script, err := simScenario(spec.nodes, churnRadius, spec.users, spec.epochs, spec.nodeFail, spec.linkFail, s, tr)
		if err != nil {
			return nil, err
		}
		session, err := buildWireSession(script)
		if err != nil {
			return nil, err
		}
		daemon := func() serve.Config { return serveMode(cfg) }
		bySeed[s] = daemon
		r.scenarios = append(r.scenarios, wireScenario{script: script, session: session, daemon: daemon})
	}
	r.tcfg.Factory = func(m serve.Meta) (serve.Config, error) {
		daemon, ok := bySeed[m.TopoSeed]
		if !ok {
			return serve.Config{}, fmt.Errorf("bench: no scenario with seed %d", m.TopoSeed)
		}
		return daemon(), nil
	}
	if err := r.listen(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func setupWireOrdered(seed int64, _ int, tr *tracer) (runner, error) {
	spec := wireScenarioSpec{count: orderedScenarios, nodes: orderedNodes, users: orderedUsers, epochs: orderedEpochs}
	return newWireRunner("wire_ordered", "unix", transport.Config{Ordered: true}, nil, spec, seed, tr)
}

func setupWireOverload(seed int64, _ int, tr *tracer) (runner, error) {
	cc := model.DefaultCloudConfig()
	tcfg := transport.Config{
		DeadlineSlots: 2, MaxQueue: 64, Capacity: 48,
		Breaker: transport.BreakerConfig{Enabled: true, TripAfter: 1, Cooldown: 2, CostBudget: 12},
		Ladder: transport.LadderConfig{CloudTransfer: cc.TransferCost, CloudCompute: cc.Compute,
			CloudColdStart: 0.25},
	}
	link := &chaos.LinkConfig{Seed: stats.SplitSeed(seed, "bench/link"), Drop: 0.25, Dup: 0.05, Delay: 0.15}
	spec := wireScenarioSpec{count: overloadScenarios, nodes: overloadNodes, users: overloadUsers,
		epochs: overloadEpochs, nodeFail: 0.25, linkFail: 0.15}
	return newWireRunner("wire_overload", "tcp", tcfg, link, spec, seed, tr)
}
