package transport_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// startServer runs a server on a unix socket until the test ends.
func startServer(tb testing.TB, cfg transport.Config) *transport.Server {
	tb.Helper()
	srv, err := transport.Listen("unix", filepath.Join(tb.TempDir(), "s"), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	tb.Cleanup(func() {
		bounded(tb, "closing the server", func() { srv.Close() })
		if err := <-served; err != nil {
			tb.Error(err)
		}
	})
	return srv
}

// bounded runs f under a watchdog. A server lock left held on some path
// stalls a session, and the close that waits for it, for good; the test then
// fails after 10 s with a goroutine dump instead of at go test's timeout.
func bounded(tb testing.TB, what string, f func()) {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		tb.Fatalf("%s did not return within 10 s; goroutines:\n%s", what, buf[:runtime.Stack(buf, true)])
	}
}

// rawPeer is a bare framed connection: it writes exactly the bytes a test
// hands it and reads one frame at a time under a deadline.
type rawPeer struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(tb testing.TB, srv *transport.Server) *rawPeer {
	tb.Helper()
	conn, err := net.Dial("unix", srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() }) // before the server's cleanup waits on it
	return &rawPeer{conn: conn, br: bufio.NewReader(conn)}
}

func (p *rawPeer) write(tb testing.TB, chunks ...[]byte) {
	tb.Helper()
	if _, err := p.conn.Write(bytes.Join(chunks, nil)); err != nil {
		tb.Fatal(err)
	}
}

// read returns the next frame, failing tb if none arrives within wait.
func (p *rawPeer) read(tb testing.TB, wait time.Duration) transport.Frame {
	tb.Helper()
	p.conn.SetReadDeadline(time.Now().Add(wait))
	fr, err := transport.ReadFrame(p.br)
	if err != nil {
		tb.Fatalf("no frame within %s: %v", wait, err)
	}
	return fr
}

// readBytes returns the next n bytes, failing tb if they do not arrive
// within wait.
func (p *rawPeer) readBytes(tb testing.TB, n int, wait time.Duration) []byte {
	tb.Helper()
	p.conn.SetReadDeadline(time.Now().Add(wait))
	b := make([]byte, n)
	if _, err := io.ReadFull(p.br, b); err != nil {
		tb.Fatalf("%d response bytes not read within %s: %v", n, wait, err)
	}
	return b
}

// orderedSession is a faulted scenario's session frames and an ordered
// engine config whose factory builds a fresh replay daemon per hello.
func orderedSession(t *testing.T, seed int64) ([]transport.Frame, transport.Config) {
	cfg, s := soakStream(t, 8, 6, 6, seed)
	frames, err := transport.BuildSession(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frames, transport.Config{
		Factory: func(serve.Meta) (serve.Config, error) {
			return sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig())), nil
		},
		Ordered: true,
	}
}

// TestServerFlushesBeforePartialFrame: a peer that has sent one whole frame
// and the first bytes of the next, and waits for the first frame's ack
// before sending the rest, must get that ack. A server that holds responses
// while its read buffer is merely non-empty blocks reading the partial frame
// and never answers.
func TestServerFlushesBeforePartialFrame(t *testing.T) {
	frames, cfg := orderedSession(t, 11)
	p := dialRaw(t, startServer(t, cfg))
	enc := make([][]byte, len(frames))
	for i := range frames {
		enc[i] = transport.Encode(frames[i])
	}
	rest := enc[0] // what the peer has not yet written of frame i
	// Each write ends inside the next frame: after its first byte, halfway,
	// and one byte short.
	for i := 0; i < 3; i++ {
		next := enc[i+1]
		cut := []int{1, len(next) / 2, len(next) - 1}[i]
		p.write(t, rest, next[:cut])
		rest = next[cut:]
		fr := p.read(t, 2*time.Second)
		if fr.Type != transport.MsgAck || fr.Seq != frames[i].Seq {
			t.Fatalf("write %d: got frame type %d seq %d, want the ack of seq %d", i, fr.Type, fr.Seq, frames[i].Seq)
		}
	}
	p.write(t, rest)
	if fr := p.read(t, 2*time.Second); fr.Type != transport.MsgAck || fr.Seq != frames[3].Seq {
		t.Fatalf("got frame type %d seq %d, want the ack of seq %d", fr.Type, fr.Seq, frames[3].Seq)
	}
}

// TestServerAcksBeforeDecodeError: a frame followed by undecodable bytes in
// one write is answered with the frame's ack and then the error frame, in
// that order, before the server hangs up.
func TestServerAcksBeforeDecodeError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		garbage []byte
	}{
		{"zero length", []byte{0}},
		{"unknown type", []byte{3, 0xff, 0, 0}},
		{"oversized", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames, cfg := orderedSession(t, 13)
			p := dialRaw(t, startServer(t, cfg))
			p.write(t, transport.Encode(frames[0]), tc.garbage)
			if fr := p.read(t, 5*time.Second); fr.Type != transport.MsgAck || fr.Seq != frames[0].Seq {
				t.Fatalf("first response: type %d seq %d, want the hello's ack", fr.Type, fr.Seq)
			}
			if fr := p.read(t, 5*time.Second); fr.Type != transport.MsgError {
				t.Fatalf("second response: type %d, want an error frame", fr.Type)
			}
			p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := transport.ReadFrame(p.br); !errors.Is(err, io.EOF) {
				t.Fatalf("after the error frame: %v, want the server to hang up", err)
			}
		})
	}
}

// TestServerEpochBytesMatchInProcess: a peer writes each epoch (its events
// and its tick) in one write. It reads every event's ack before the tick's,
// and the bytes it reads over the whole session are exactly what the
// in-process engine returns for the same frames, encoded with AppendFrame.
func TestServerEpochBytesMatchInProcess(t *testing.T) {
	frames, cfg := orderedSession(t, 17)
	p := dialRaw(t, startServer(t, cfg))
	ref := transport.NewEngine(cfg)
	eventEpochs := 0
	for start := 0; start < len(frames); {
		// One write: the hello alone, an epoch's events through its tick, or
		// the finish.
		end := start + 1
		if frames[start].Type == transport.MsgEvent {
			for frames[end-1].Type != transport.MsgTick {
				end++
			}
		}
		var sent, want []byte
		for _, fr := range frames[start:end] {
			sent = transport.AppendFrame(sent, fr)
			for _, resp := range ref.HandleFrame(fr) {
				want = transport.AppendFrame(want, resp)
			}
		}
		p.write(t, sent)
		got := p.readBytes(t, len(want), 10*time.Second)
		if !bytes.Equal(got, want) {
			t.Fatalf("frames %d..%d: socket answered %x, in-process %x", start, end-1, got, want)
		}
		if frames[end-1].Type == transport.MsgTick && end-start > 1 {
			eventEpochs++
			acked := map[uint64]bool{}
			br := bufio.NewReader(bytes.NewReader(got))
			for {
				fr, err := transport.ReadFrame(br)
				if err != nil {
					t.Fatalf("epoch ending at frame %d: no tick ack in the response: %v", end-1, err)
				}
				if fr.Seq == frames[end-1].Seq {
					break
				}
				acked[fr.Seq] = true
			}
			for _, fr := range frames[start : end-1] {
				if !acked[fr.Seq] {
					t.Fatalf("event seq %d was not acked before its epoch's tick", fr.Seq)
				}
			}
		}
		start = end
	}
	if eventEpochs < 4 {
		t.Fatalf("session had %d epochs with events; the test exercised too little", eventEpochs)
	}
	// Nothing follows the finish's answer: closing our side ends the stream.
	p.conn.(*net.UnixConn).CloseWrite()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := p.br.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("after the finish: read %d bytes, err %v; want EOF", n, err)
	}
}

// BenchmarkServerEpoch times one closed-loop epoch over a unix socket, the
// wire_ordered shape: one write of about 30 event frames and a tick, then a
// read until the tick's ack. The daemon runs in serve mode on a fault-free
// 12-node scenario; a session that runs out of epochs is finished and a new
// one opened off the clock.
func BenchmarkServerEpoch(b *testing.B) {
	simCfg, script := epochScenario(b)
	frames, err := transport.BuildSession(script, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Cut the session into its writes: hello, one per epoch, finish.
	var writes [][]byte
	var ackSeq []uint64
	var cur []byte
	for _, fr := range frames {
		cur = transport.AppendFrame(cur, fr)
		if fr.Type != transport.MsgEvent {
			writes, ackSeq, cur = append(writes, cur), append(ackSeq, fr.Seq), nil
		}
	}
	hello, epochs, finish := writes[0], writes[1:len(writes)-1], writes[len(writes)-1]
	srv := startServer(b, serveModeConfig(simCfg))
	p := dialRaw(b, srv)
	// roundTrip writes w and reads until the answer to its last frame (seq):
	// the tick's or the hello's ack, or the finish's result.
	roundTrip := func(w []byte, seq uint64) {
		p.write(b, w)
		for {
			fr := p.read(b, 10*time.Second)
			if fr.Type == transport.MsgError {
				b.Fatalf("server error: %s", fr.Body)
			}
			if fr.Seq == seq {
				return
			}
		}
	}
	roundTrip(hello, ackSeq[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i, e := 0, 0; i < b.N; i, e = i+1, e+1 {
		if e == len(epochs) {
			b.StopTimer()
			roundTrip(finish, ackSeq[len(ackSeq)-1])
			roundTrip(hello, ackSeq[0])
			e = 0
			b.StartTimer()
		}
		roundTrip(epochs[e], ackSeq[1+e])
	}
	b.ReportMetric(float64(len(frames)-len(writes))/float64(len(epochs)), "events/op")
}

// epochScenario is BenchmarkServerEpoch's scenario: a fault-free 12-node,
// 15-user, 200-slot event stream.
func epochScenario(tb testing.TB) (sim.Config, *serve.Script) {
	tb.Helper()
	const nodes, users, slots, seed = 12, 15, 200, 1
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	simCfg := sim.DefaultConfig(g, cat, users, seed)
	simCfg.DurationMinutes = float64(slots) * simCfg.SlotMinutes
	script, err := sim.EventStream(simCfg)
	if err != nil {
		tb.Fatal(err)
	}
	return simCfg, script
}

// serveModeConfig is an ordered engine config whose daemon runs simCfg in
// serve mode.
func serveModeConfig(simCfg sim.Config) transport.Config {
	return transport.Config{
		Factory: func(serve.Meta) (serve.Config, error) {
			sc := sim.ReplayConfig(simCfg, sim.NewSoCLOnline(core.DefaultConfig()))
			sc.Replan, sc.Policy = false, nil
			return sc, nil
		},
		Ordered: true,
	}
}

// TestServerEventFrameAllocs gates what the server spends on one ordered,
// accepted arrive frame: HandleFrame, then AppendFrame of its ack into a
// reused buffer. It allocates 3 times: the event's chain and edge data, and
// the one-frame response slice. The line is parsed in place from the frame
// body and the ack body is shared.
func TestServerEventFrameAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("-tags soclinvariants records every admitted seq in a map")
	}
	simCfg, script := epochScenario(t)
	var arrive serve.Event
	for _, ev := range script.Events {
		if ev.Kind == serve.EvArrive && len(ev.Req.EdgeData) > 0 {
			arrive = ev
			break
		}
	}
	if arrive.Kind != serve.EvArrive {
		t.Fatal("the scenario has no arrival with edge data")
	}
	const runs = 200
	bodies := make([][]byte, runs+1) // AllocsPerRun adds a warm-up run
	for i := range bodies {
		ev := arrive
		ev.Slot, ev.ID, ev.Req.ID = 0, 1<<20+i, 1<<20+i
		line, err := serve.FormatEvent(&ev)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = transport.EventBody(0, line)
	}
	eng := transport.NewEngine(serveModeConfig(simCfg))
	eng.HandleFrame(transport.Frame{Type: transport.MsgHello, Body: []byte(serve.FormatMeta(script.Meta))})
	var out []byte
	seq := uint64(1)
	allocs := testing.AllocsPerRun(runs, func() {
		resps := eng.HandleFrame(transport.Frame{Type: transport.MsgEvent, Seq: seq, Body: bodies[seq-1]})
		out = transport.AppendFrame(out[:0], resps[0])
		seq++
	})
	if got := eng.Stats().Admitted; got != runs+1 {
		t.Fatalf("%d of %d event frames admitted", got, runs+1)
	}
	if allocs > 3 {
		t.Fatalf("an accepted event frame allocates %v times, want at most 3", allocs)
	}
}
