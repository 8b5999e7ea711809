package transport

import (
	"bufio"
	"errors"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/stats"
)

func backoffClient(seed int64) *Client {
	cfg := ClientConfig{Seed: seed}
	return &Client{
		cfg: cfg,
		rng: rand.New(rand.NewSource(stats.SplitSeed(seed, "transport/retry"))),
	}
}

// TestBackoffDeterministic pins the retry schedule to the seed: two clients
// with the same seed draw identical jittered delays, and a different seed
// diverges.
func TestBackoffDeterministic(t *testing.T) {
	a, b, c := backoffClient(4), backoffClient(4), backoffClient(5)
	same, diff := true, false
	for round := 0; round < 10; round++ {
		da, db, dc := a.backoff(round), b.backoff(round), c.backoff(round)
		if da != db {
			same = false
		}
		if da != dc {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different backoff sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical backoff sequences")
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	cl := backoffClient(1)
	base, cap := DefaultRetryBase, DefaultRetryCap
	prevMax := time.Duration(0)
	for round := 0; round < 20; round++ {
		d := cl.backoff(round)
		// Jitter scales by [0.5, 1.0): the delay stays within half the
		// nominal step and the cap.
		nominal := base << uint(round)
		if nominal > cap || nominal <= 0 {
			nominal = cap
		}
		if d < nominal/2 || d >= nominal {
			t.Fatalf("round %d: delay %v outside [%v, %v)", round, d, nominal/2, nominal)
		}
		if d > cap {
			t.Fatalf("round %d: delay %v exceeds cap %v", round, d, cap)
		}
		if nominal == cap && prevMax == cap {
			// Saturated: nothing more to check beyond the cap bound.
			break
		}
		prevMax = nominal
	}
}

// TestClientConnectionLost: a server that stops talking mid-session — it
// reads the client's frames, acknowledges none and closes its side of the
// connection — makes Run return the read error within 10 s, and the
// client's state stays readable afterwards: the read loop releases the lock
// on its way out, so a later acked or sessionState does not block.
func TestClientConnectionLost(t *testing.T) {
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		_, _ = ReadFrame(bufio.NewReader(conn)) // the hello: the session is under way
		// Closing the write side alone: the client sees the connection end
		// on its reads while its retransmissions still find a reader, so the
		// error Run reports is the read loop's.
		_ = conn.(*net.UnixConn).CloseWrite()
		accepted <- conn
	}()
	c, err := Dial("unix", ln.Addr().String(), ClientConfig{Reliable: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := &serve.Script{Meta: serve.Meta{Nodes: 6, Radius: 0.4, NumSlots: 3}}
	for i := 0; i < 4; i++ {
		s.Events = append(s.Events, serve.Event{Slot: i % 3, Kind: serve.EvArrive, ID: i, Node: i,
			Req: msvc.Request{ID: i, Home: i, Chain: []int{0, 1}, EdgeData: []float64{1}, Deadline: 2}})
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(s)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("Run returned %v, want the read loop's %v", err, io.EOF)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10 s of the server closing the connection")
	}
	if conn, ok := <-accepted; ok {
		conn.Close()
	}
	probed := make(chan struct{})
	go func() {
		c.acked(0)
		c.sessionState()
		close(probed)
	}()
	select {
	case <-probed:
	case <-time.After(10 * time.Second):
		t.Fatal("acked/sessionState blocked after the connection was lost: the read loop kept the lock")
	}
}
