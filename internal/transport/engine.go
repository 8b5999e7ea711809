package transport

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/invariant"
	"repro/internal/serve"
)

// Config wires an Engine: how to build the daemon from a session's meta line,
// and the frontend's overload-hardening knobs. The zero values of every knob
// are permissive (no bounds, no deadlines, no breaker), which is the reliable
// replay configuration.
type Config struct {
	// Factory builds the daemon wiring for a session from its hello meta
	// line. The engine wraps the config's Policy in a GuardedPolicy when the
	// breaker is enabled.
	Factory func(serve.Meta) (serve.Config, error)

	// Ordered admits frames strictly in sequence-number order: out-of-order
	// frames are held until the gap fills (the client retransmits dropped
	// frames). In this discipline chaos on the wire is fully masked — the
	// recorded script equals the sent one — so the bitwise replay-vs-sim.Run
	// contract holds end to end. Unordered mode admits frames as they
	// arrive; late frames can blow their deadline budget and are shed.
	Ordered bool

	// DeadlineSlots is the default per-event latency budget in epochs: an
	// event not admitted within budget epochs of its slot is shed, and an
	// event arriving with its budget already blown is rejected immediately,
	// not queued. Per-event budgets on the wire override it. 0 = unlimited.
	DeadlineSlots int

	// MaxQueue bounds the admission queue; arrivals past the bound are shed
	// ("queue-full"). 0 = unbounded.
	MaxQueue int

	// Capacity is the admission work-unit budget per epoch (arrivals cost
	// one unit; departures, moves, and faults are control traffic and are
	// free). The previous epoch's reaction cost (recordCost) is debited
	// first, so an expensive repair or re-solve shrinks the next epoch's
	// admission capacity — the mechanism that couples control-plane overload
	// to load shedding. 0 = unlimited.
	Capacity int

	// Breaker and Ladder configure the circuit breaker and its degradation
	// ladder (wrapped around the daemon's policy when Breaker.Enabled).
	Breaker BreakerConfig
	Ladder  LadderConfig
}

// Stats is the engine's admission telemetry.
type Stats struct {
	// Frames counts every frame handled, retransmissions included; Events
	// counts unique event frames.
	Frames, Events int
	Admitted       int
	Duplicates     int
	ShedDeadline   int
	ShedQueue      int
	ShedOverload   int
	ShedFinished   int
	// LateAdmits counts events admitted after their slot; admission waits in
	// epochs feed WaitPercentile.
	LateAdmits int
	Epochs     int
}

// Shed totals the shed counters.
func (s Stats) Shed() int {
	return s.ShedDeadline + s.ShedQueue + s.ShedOverload + s.ShedFinished
}

type pendingEvent struct {
	seq    uint64
	budget int
	ev     serve.Event
}

// Engine is the deterministic core of the transport frontend: it consumes
// decoded frames (from a socket, the HTTP handler, or an in-process sweep),
// runs admission control, and drives a serve.Daemon. It is strictly
// single-threaded — the server serializes HandleFrame calls — so identical
// frame sequences produce identical daemons, records, and responses.
type Engine struct {
	cfg     Config
	daemon  *serve.Daemon
	breaker *Breaker
	guard   *GuardedPolicy

	started  bool
	finished bool
	runErr   error

	// Ordered-mode sequencing. heldBytes is what held is charged against
	// maxHeldBytes.
	nextSeq   uint64
	held      map[uint64]Frame
	heldBytes int

	// Unordered-mode dedup and buffering.
	seen     map[uint64]struct{}
	buffered []pendingEvent

	debt  int // last epoch's reaction cost, debited from admission capacity
	stats Stats
	waits []int
	// The recorded stream: the session's meta and the admitted events in
	// chunks of recordChunk, the last one open. A full chunk is never
	// copied; Recorded assembles the script when asked.
	meta     serve.Meta
	recorded [][]serve.Event
	admitted map[uint64]struct{} // exactly-once audit, soclinvariants only
}

// recordChunk is how many admitted events one chunk of the recorded stream
// holds: as many as fit in 32 KiB, the allocator's largest small size
// class. A larger chunk is rounded up to whole pages; 256 events wasted 14 %.
var recordChunk = (32 << 10) / int(reflect.TypeOf(serve.Event{}).Size())

// maxHeldBytes caps what an ordered engine holds for sequence gaps, whatever
// MaxQueue says: sixteen maximal frames. Each held frame is charged its body
// plus heldFrameOverhead, about what its map entry costs, so a flood of
// empty far-ahead frames is bounded too. Without the cap any peer could park
// up to MaxFrame bytes per distinct future seq for the life of the session.
const (
	maxHeldBytes      = 16 * MaxFrame
	heldFrameOverhead = 64
)

// NewEngine builds an idle engine; the session starts at the hello frame.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:  cfg,
		held: make(map[uint64]Frame),
		seen: make(map[uint64]struct{}),
	}
	if invariant.Enabled {
		e.admitted = make(map[uint64]struct{})
	}
	return e
}

// Accessors for tests and the in-process sweep.

// Stats snapshots the admission telemetry.
func (e *Engine) Stats() Stats { return e.stats }

// Result returns the daemon's run result (nil before hello).
func (e *Engine) Result() *serve.RunResult {
	if e.daemon == nil {
		return nil
	}
	return e.daemon.Result()
}

// RunErr reports a fatal daemon error, if any.
func (e *Engine) RunErr() error { return e.runErr }

// Finished reports whether the session saw its finish frame.
func (e *Engine) Finished() bool { return e.finished }

// Recorded returns the admitted event stream as a script: the events in
// admission order under the session's meta. In an ordered session with no
// sheds this equals the sent script event for event. Each call assembles a
// fresh script from the recorded chunks.
func (e *Engine) Recorded() *serve.Script {
	n := 0
	for _, c := range e.recorded {
		n += len(c)
	}
	s := &serve.Script{Meta: e.meta, Events: make([]serve.Event, 0, n)}
	for _, c := range e.recorded {
		s.Events = append(s.Events, c...)
	}
	return s
}

// Guard returns the session's GuardedPolicy (nil when the breaker is off).
func (e *Engine) Guard() *GuardedPolicy { return e.guard }

// Breaker returns the session's breaker (nil when disabled).
func (e *Engine) Breaker() *Breaker { return e.breaker }

// WaitPercentile returns the q-quantile (q in [0,1]) of admission waits in
// epochs, 0 if nothing was admitted.
func (e *Engine) WaitPercentile(q float64) int {
	if len(e.waits) == 0 {
		return 0
	}
	s := append([]int(nil), e.waits...)
	sort.Ints(s)
	idx := int(q*float64(len(s)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// HandleFrame consumes one decoded frame and returns the response frames to
// write back. It never fails the session on malformed or unexpected frames —
// those earn an error ack — and a daemon error finishes the session with
// MsgError rather than panicking the server.
func (e *Engine) HandleFrame(fr Frame) []Frame {
	e.stats.Frames++
	if !e.cfg.Ordered {
		if _, dup := e.seen[fr.Seq]; dup {
			e.stats.Duplicates++
			return []Frame{ack(fr, StatusDuplicate, "")}
		}
		e.seen[fr.Seq] = struct{}{}
		return e.processFrame(fr)
	}
	// Ordered: process exactly in seq order, holding gaps for retransmits.
	if fr.Seq < e.nextSeq {
		e.stats.Duplicates++
		return []Frame{ack(fr, StatusDuplicate, "")}
	}
	if fr.Seq > e.nextSeq {
		if _, held := e.held[fr.Seq]; held {
			e.stats.Duplicates++
		} else if e.heldBytes+len(fr.Body)+heldFrameOverhead > maxHeldBytes ||
			(e.cfg.MaxQueue > 0 && len(e.held) >= 4*e.cfg.MaxQueue) {
			// Hold-buffer bounds: drop without acking; the client will
			// retransmit once the gap drains.
			return nil
		} else {
			e.held[fr.Seq] = cloneFrame(fr)
			e.heldBytes += len(fr.Body) + heldFrameOverhead
		}
		return []Frame{ack(fr, StatusDuplicate, "held")}
	}
	out := e.processFrame(fr)
	e.nextSeq++
	for {
		next, ok := e.held[e.nextSeq]
		if !ok {
			break
		}
		delete(e.held, e.nextSeq)
		e.heldBytes -= len(next.Body) + heldFrameOverhead
		out = append(out, e.processFrame(next)...)
		e.nextSeq++
	}
	return out
}

// mayReact reports whether handling fr can tick the daemon: fr is a tick or a
// finish, or, in an ordered session, it fills the gap in front of held frames,
// any of which may be one.
func (e *Engine) mayReact(fr Frame) bool {
	return fr.Type == MsgTick || fr.Type == MsgFinish ||
		(e.cfg.Ordered && fr.Seq == e.nextSeq && len(e.held) > 0)
}

// cloneFrame copies a frame whose body may alias a caller-owned buffer.
func cloneFrame(fr Frame) Frame {
	fr.Body = append([]byte(nil), fr.Body...)
	return fr
}

func (e *Engine) processFrame(fr Frame) []Frame {
	switch fr.Type {
	case MsgHello:
		return e.handleHello(fr)
	case MsgEvent:
		return e.handleEvent(fr)
	case MsgTick:
		return e.handleTick(fr)
	case MsgFinish:
		return e.handleFinish(fr)
	default:
		// Ack/result/error are client-bound; a server receiving one ignores
		// it rather than failing the session.
		return nil
	}
}

func (e *Engine) handleHello(fr Frame) []Frame {
	if e.started {
		return []Frame{ack(fr, StatusOK, "session already started")}
	}
	if e.cfg.Factory == nil {
		return []Frame{errFrame(fr.Seq, "transport: no session factory configured")}
	}
	meta, err := serve.ParseMetaLine(string(fr.Body))
	if err != nil {
		return []Frame{errFrame(fr.Seq, fmt.Sprintf("bad hello meta: %v", err))}
	}
	sc, err := e.cfg.Factory(meta)
	if err != nil {
		return []Frame{errFrame(fr.Seq, fmt.Sprintf("session factory: %v", err))}
	}
	if e.cfg.Breaker.Enabled {
		e.breaker = NewBreaker(e.cfg.Breaker)
		e.guard = &GuardedPolicy{
			Inner:   sc.ReactionPolicy(),
			Breaker: e.breaker,
			Ladder:  e.cfg.Ladder,
		}
		sc.Policy = e.guard
	}
	d, err := serve.NewDaemon(sc)
	if err != nil {
		return []Frame{errFrame(fr.Seq, fmt.Sprintf("daemon: %v", err))}
	}
	e.daemon = d
	e.meta = meta
	e.started = true
	// The hello ack carries the admission discipline so clients can refuse
	// a doomed pairing (an open-loop client cannot fill an ordered server's
	// sequence gaps) instead of stalling until their timeout.
	mode := "unordered"
	if e.cfg.Ordered {
		mode = "ordered"
	}
	return []Frame{ack(fr, StatusOK, mode)}
}

func (e *Engine) handleEvent(fr Frame) []Frame {
	e.stats.Events++
	if !e.started {
		return []Frame{errFrame(fr.Seq, "event before hello")}
	}
	if e.finished {
		e.stats.ShedFinished++
		return []Frame{ack(fr, StatusShed, "finished")}
	}
	budget, line, err := ParseEventBody(fr.Body)
	if err != nil {
		return []Frame{errFrame(fr.Seq, err.Error())}
	}
	ev, err := serve.ParseEventLine(line)
	if err != nil {
		return []Frame{errFrame(fr.Seq, fmt.Sprintf("bad event line: %v", err))}
	}
	if budget == 0 {
		budget = e.cfg.DeadlineSlots
	}
	epoch := e.daemon.Epoch()
	// An event whose latency budget is already blown is rejected here, not
	// queued — the deadline-aware front door.
	if budget > 0 && epoch > ev.Slot+budget {
		e.stats.ShedDeadline++
		return []Frame{ack(fr, StatusShed, "deadline")}
	}
	if e.cfg.Ordered {
		// Reliable sessions admit inline: order is seq order by construction.
		return []Frame{e.admit(fr.Seq, ev, epoch)}
	}
	if e.cfg.MaxQueue > 0 && len(e.buffered) >= e.cfg.MaxQueue {
		e.stats.ShedQueue++
		return []Frame{ack(fr, StatusShed, "queue-full")}
	}
	// Ladder rung 3: while the breaker is open the system is degraded;
	// refuse new arrivals once the queue is half full rather than queueing
	// work the control plane cannot absorb. Control traffic still flows.
	if ev.Kind == serve.EvArrive && e.breaker != nil && e.breaker.State() == BreakerOpen &&
		e.cfg.MaxQueue > 0 && len(e.buffered) >= e.cfg.MaxQueue/2 {
		e.stats.ShedOverload++
		return []Frame{ack(fr, StatusShed, "overload")}
	}
	e.buffered = append(e.buffered, pendingEvent{seq: fr.Seq, budget: budget, ev: ev})
	// No ack yet: the disposition (admitted or shed) is reported when the
	// admission loop decides it. A retransmit meanwhile earns a duplicate
	// ack, which tells the client the frame is safely queued.
	return nil
}

// admit ingests one event into the daemon and the recorded stream.
func (e *Engine) admit(seq uint64, ev serve.Event, epoch int) Frame {
	if invariant.Enabled {
		_, dup := e.admitted[seq]
		invariant.Assertf(!dup, "transport: seq %d admitted twice", seq)
		e.admitted[seq] = struct{}{}
	}
	if wait := epoch - ev.Slot; wait > 0 {
		e.waits = append(e.waits, wait)
		e.stats.LateAdmits++
	} else {
		e.waits = append(e.waits, 0)
	}
	e.daemon.Ingest(ev)
	if n := len(e.recorded); n == 0 || len(e.recorded[n-1]) == recordChunk {
		e.recorded = append(e.recorded, make([]serve.Event, 0, recordChunk))
	}
	last := &e.recorded[len(e.recorded)-1]
	*last = append(*last, ev)
	e.stats.Admitted++
	return Frame{Type: MsgAck, Seq: seq, Body: ackBody(StatusAccepted, "")}
}

func (e *Engine) handleTick(fr Frame) []Frame {
	if !e.started {
		return []Frame{errFrame(fr.Seq, "tick before hello")}
	}
	target, err := ParseTickBody(fr.Body)
	if err != nil {
		return []Frame{errFrame(fr.Seq, err.Error())}
	}
	out := e.advanceTo(target)
	return append(out, ack(fr, StatusOK, ""))
}

func (e *Engine) handleFinish(fr Frame) []Frame {
	if !e.started {
		return []Frame{errFrame(fr.Seq, "finish before hello")}
	}
	var out []Frame
	if !e.finished {
		// Drain through the horizon: the script's slot count, or one past
		// the latest buffered event, whichever is later.
		horizon := e.meta.NumSlots
		for i := range e.buffered {
			if s := e.buffered[i].ev.Slot + 1; s > horizon {
				horizon = s
			}
		}
		out = e.advanceTo(horizon)
		e.finished = true
		// Anything still buffered was starved past the horizon: shed it.
		for i := range e.buffered {
			e.stats.ShedDeadline++
			out = append(out, ack(Frame{Seq: e.buffered[i].seq}, StatusShed, "deadline"))
		}
		e.buffered = nil
	}
	if e.runErr != nil {
		return append(out, errFrame(fr.Seq, e.runErr.Error()))
	}
	return append(out, Frame{Type: MsgResult, Seq: fr.Seq, Body: []byte(e.Summary())})
}

// advanceTo ticks the daemon until its epoch reaches target, running the
// admission loop at each epoch boundary.
func (e *Engine) advanceTo(target int) []Frame {
	var out []Frame
	for e.runErr == nil && e.daemon.Epoch() < target {
		out = append(out, e.drainAdmit()...)
		rec, err := e.daemon.Tick()
		e.stats.Epochs++
		if err != nil {
			e.runErr = err
			out = append(out, errFrame(0, err.Error()))
			break
		}
		e.debt = recordCost(rec)
		if e.breaker != nil {
			e.breaker.OnEpoch()
		}
	}
	return out
}

// drainAdmit admits every due buffered event the epoch's capacity allows, in
// deterministic (slot, seq) order; due events that blew their budget waiting
// are shed. Unadmitted due events stay buffered and wait.
func (e *Engine) drainAdmit() []Frame {
	if len(e.buffered) == 0 {
		return nil
	}
	epoch := e.daemon.Epoch()
	units := e.cfg.Capacity - e.debt
	if units < 0 {
		units = 0
	}
	sort.SliceStable(e.buffered, func(i, j int) bool {
		if e.buffered[i].ev.Slot != e.buffered[j].ev.Slot {
			return e.buffered[i].ev.Slot < e.buffered[j].ev.Slot
		}
		return e.buffered[i].seq < e.buffered[j].seq
	})
	var out []Frame
	keep := e.buffered[:0]
	for _, p := range e.buffered {
		if p.ev.Slot > epoch {
			keep = append(keep, p)
			continue
		}
		if p.budget > 0 && epoch > p.ev.Slot+p.budget {
			e.stats.ShedDeadline++
			out = append(out, ack(Frame{Seq: p.seq}, StatusShed, "deadline"))
			continue
		}
		cost := 0
		if p.ev.Kind == serve.EvArrive {
			cost = 1
		}
		if e.cfg.Capacity > 0 && cost > 0 && units < cost {
			keep = append(keep, p) // starved: wait for a cheaper epoch
			continue
		}
		units -= cost
		out = append(out, e.admit(p.seq, p.ev, epoch))
	}
	e.buffered = keep
	return out
}

// Summary renders the session's one-line key=value report (the MsgResult
// body).
func (e *Engine) Summary() string {
	s := e.stats
	var b strings.Builder
	fmt.Fprintf(&b, "frames=%d events=%d admitted=%d dups=%d", s.Frames, s.Events, s.Admitted, s.Duplicates)
	fmt.Fprintf(&b, " shed_deadline=%d shed_queue=%d shed_overload=%d shed_finished=%d",
		s.ShedDeadline, s.ShedQueue, s.ShedOverload, s.ShedFinished)
	fmt.Fprintf(&b, " late=%d p99_wait=%d epochs=%d", s.LateAdmits, e.WaitPercentile(0.99), s.Epochs)
	if e.breaker != nil {
		fmt.Fprintf(&b, " breaker=%s trips=%d", e.breaker.State(), e.breaker.Trips())
	}
	if e.guard != nil {
		fmt.Fprintf(&b, " degraded_epochs=%d offload_epochs=%d", e.guard.DegradedEpochs, e.guard.OffloadEpochs)
	}
	if res := e.Result(); res != nil && res.Final != nil {
		fmt.Fprintf(&b, " final_unserved=%d", res.Final.Unserved())
	}
	if e.runErr != nil {
		fmt.Fprintf(&b, " err=%q", e.runErr.Error())
	}
	return b.String()
}

func ack(fr Frame, status byte, reason string) Frame {
	return Frame{Type: MsgAck, Seq: fr.Seq, Body: ackBody(status, reason)}
}

func errFrame(seq uint64, msg string) Frame {
	return Frame{Type: MsgError, Seq: seq, Body: []byte(msg)}
}
