package transport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Client retry schedule: at most DefaultRetryMax retransmissions per frame,
// swept with a capped exponential backoff from DefaultRetryBase up to
// DefaultRetryCap, each sweep's delay scaled by a jitter factor in
// [0.5, 1.0); a session gives up after DefaultTimeout.
const (
	DefaultRetryMax  = 12
	DefaultRetryBase = 2 * time.Millisecond
	DefaultRetryCap  = 100 * time.Millisecond
	DefaultTimeout   = 60 * time.Second
)

// ClientConfig tunes the sending side.
type ClientConfig struct {
	// Reliable retransmits every frame until the server acknowledges it —
	// the discipline that masks wire chaos and preserves the bitwise replay
	// contract. Open-loop (false) sends event frames exactly once,
	// fire-and-forget, and only the control frames (hello/tick/finish)
	// reliably: the overload-measurement mode.
	Reliable bool
	// Seed feeds the jitter stream via stats.SplitSeed(Seed,
	// "transport/retry"): two clients with the same seed back off
	// identically.
	Seed int64
	// DefaultBudget stamps every event's deadline budget in slots (0 =
	// server default).
	DefaultBudget int
	// Chaos, when non-nil, impairs the client's sends: in reliable mode
	// every frame passes the link (retransmission recovers); in open-loop
	// mode only event frames do, control frames stay clean.
	Chaos *chaos.LinkConfig
}

// AckInfo is the final disposition the server reported for one frame.
type AckInfo struct {
	Status byte
	Reason string
}

// Report summarizes a client session.
type Report struct {
	// Accepted/Shed/Dup count event dispositions; Retransmits counts
	// retransmission sends beyond each frame's first attempt.
	Accepted, Shed, Dup int
	Retransmits         int
	// Summary is the server's MsgResult line; Errors collects MsgError
	// bodies.
	Summary string
	Errors  []string
	// Link reports the chaos the client's own link injected.
	Link chaos.LinkStats
}

// pollTick is the wait granularity while watching for acknowledgements.
const pollTick = time.Millisecond

// Client drives one session over a framed connection.
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	bw   *bufio.Writer
	link *chaos.Link
	rng  *rand.Rand

	mu      sync.Mutex
	acks    map[uint64]AckInfo
	result  *Frame
	errs    []string
	readErr error
}

// Dial connects a client. network is "unix" or "tcp".
func Dial(network, addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s %s: %w", network, addr, err)
	}
	c := &Client{
		cfg:  cfg,
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64*1024),
		rng:  rand.New(rand.NewSource(stats.SplitSeed(cfg.Seed, "transport/retry"))),
		acks: make(map[uint64]AckInfo),
	}
	if cfg.Chaos != nil {
		c.link = chaos.NewLink(*cfg.Chaos, c.rawWrite)
	}
	return c, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) rawWrite(b []byte) error {
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	return c.bw.Flush()
}

// send writes one frame, stamping the attempt number so retransmits redraw
// their chaos fate. impaired routes through the chaos link when configured.
func (c *Client) send(fr Frame, attempt int, impaired bool) error {
	fr.Attempt = uint64(attempt)
	b := Encode(fr)
	if impaired && c.link != nil {
		return c.link.Send(b)
	}
	if c.link != nil {
		// Control frames overtaking held event frames would reorder the
		// session; flush the link first.
		if err := c.link.Flush(); err != nil {
			return err
		}
	}
	return c.rawWrite(b)
}

// backoff returns the capped exponential delay for a retransmission sweep,
// scaled by seeded jitter in [0.5, 1.0).
func (c *Client) backoff(round int) time.Duration {
	d := DefaultRetryBase
	for i := 0; i < round && d < DefaultRetryCap; i++ {
		d *= 2
	}
	if d > DefaultRetryCap {
		d = DefaultRetryCap
	}
	return time.Duration(float64(d) * (0.5 + 0.5*c.rng.Float64()))
}

// readLoop collects server responses into the ack map.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64*1024)
	for {
		fr, err := ReadFrame(br)
		c.mu.Lock()
		if err != nil {
			c.readErr = err
			c.mu.Unlock()
			return
		}
		switch fr.Type {
		case MsgAck:
			if status, reason, perr := ParseAckBody(fr.Body); perr == nil {
				// First ack wins, except a final disposition replaces a
				// provisional "held"/duplicate one.
				prev, ok := c.acks[fr.Seq]
				if !ok || (prev.Status == StatusDuplicate && status != StatusDuplicate) {
					c.acks[fr.Seq] = AckInfo{Status: status, Reason: reason}
				}
			}
		case MsgResult:
			f := cloneFrame(fr)
			c.result = &f
		case MsgError:
			c.errs = append(c.errs, string(fr.Body))
		}
		c.mu.Unlock()
	}
}

// acked reports a frame's disposition, if any.
func (c *Client) acked(seq uint64) (AckInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.acks[seq]
	return a, ok
}

// sessionState snapshots (result arrived, connection error).
func (c *Client) sessionState() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result != nil, c.readErr
}

// Run plays a script through the session and returns the client-side report.
func (c *Client) Run(s *serve.Script) (*Report, error) {
	frames, err := BuildSession(s, c.cfg.DefaultBudget)
	if err != nil {
		return nil, err
	}
	go c.readLoop()
	rep := &Report{}
	deadline := time.Now().Add(DefaultTimeout)
	if c.cfg.Reliable {
		err = c.runReliable(frames, rep, deadline)
	} else {
		err = c.runOpenLoop(frames, rep, deadline)
	}
	c.mu.Lock()
	for i := range frames {
		// Non-event frames carry no disposition; an unacked event is an
		// open-loop drop — never acked, never admitted.
		if frames[i].Type == MsgEvent {
			switch a, ok := c.acks[frames[i].Seq]; {
			case !ok:
			case a.Status == StatusAccepted:
				rep.Accepted++
			case a.Status == StatusShed:
				rep.Shed++
			case a.Status == StatusDuplicate:
				rep.Dup++
			}
		}
	}
	if c.result != nil {
		rep.Summary = string(c.result.Body)
	}
	rep.Errors = append(rep.Errors, c.errs...)
	c.mu.Unlock()
	if c.link != nil {
		rep.Link = c.link.Stats()
	}
	return rep, err
}

// runReliable sends every frame and sweeps retransmissions with backoff
// until all frames are acknowledged and the result arrived.
func (c *Client) runReliable(frames []Frame, rep *Report, deadline time.Time) error {
	attempts := make([]int, len(frames))
	for i := range frames {
		if err := c.send(frames[i], 0, true); err != nil {
			return err
		}
	}
	for round := 0; ; round++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: session timed out after %s", DefaultTimeout)
		}
		gotResult, readErr := c.sessionState()
		if readErr != nil && !gotResult {
			return fmt.Errorf("transport: connection lost: %w", readErr)
		}
		var unacked []int
		for i := range frames {
			if _, ok := c.acked(frames[i].Seq); !ok {
				unacked = append(unacked, i)
			}
		}
		if len(unacked) == 0 && gotResult {
			return nil
		}
		time.Sleep(c.backoff(round))
		for _, i := range unacked {
			if _, ok := c.acked(frames[i].Seq); ok {
				continue
			}
			attempts[i]++
			if attempts[i] > DefaultRetryMax {
				return fmt.Errorf("transport: frame seq %d dropped %d times, giving up",
					frames[i].Seq, attempts[i])
			}
			rep.Retransmits++
			if err := c.send(frames[i], attempts[i], true); err != nil {
				return err
			}
		}
	}
}

// runOpenLoop fires event frames once through the impaired link and sends
// control frames reliably so the session itself survives the chaos.
func (c *Client) runOpenLoop(frames []Frame, rep *Report, deadline time.Time) error {
	for i := range frames {
		if frames[i].Type == MsgEvent {
			if err := c.send(frames[i], 0, true); err != nil {
				return err
			}
			continue
		}
		if err := c.sendControl(frames[i], rep, deadline); err != nil {
			return err
		}
		// An open-loop client never retransmits dropped event frames, so an
		// ordered server's sequence would stall on the first loss and the
		// session would only die by timeout. The hello ack names the server's
		// discipline: refuse the pairing up front.
		if frames[i].Type == MsgHello {
			if a, ok := c.acked(frames[i].Seq); ok && a.Reason == "ordered" {
				return fmt.Errorf("transport: open-loop client against an ordered server: dropped events would stall the sequence; use a reliable client or an -unordered server")
			}
		}
	}
	for {
		gotResult, readErr := c.sessionState()
		if gotResult {
			return nil
		}
		if readErr != nil {
			return fmt.Errorf("transport: connection lost: %w", readErr)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: no result before timeout")
		}
		time.Sleep(pollTick)
	}
}

// sendControl delivers one control frame reliably (retransmit until acked;
// for the finish frame the result itself also counts as the ack).
func (c *Client) sendControl(fr Frame, rep *Report, deadline time.Time) error {
	for attempt := 0; ; attempt++ {
		if attempt > DefaultRetryMax {
			return fmt.Errorf("transport: control frame seq %d unacknowledged after %d attempts", fr.Seq, attempt)
		}
		if attempt > 0 {
			rep.Retransmits++
		}
		if err := c.send(fr, attempt, false); err != nil {
			return err
		}
		limit := time.Now().Add(c.backoff(attempt))
		for time.Now().Before(limit) {
			if _, ok := c.acked(fr.Seq); ok {
				return nil
			}
			gotResult, readErr := c.sessionState()
			if fr.Type == MsgFinish && gotResult {
				return nil
			}
			if readErr != nil && !gotResult {
				return fmt.Errorf("transport: connection lost: %w", readErr)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("transport: session timed out")
			}
			time.Sleep(pollTick)
		}
	}
}
