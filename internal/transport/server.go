package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Server accepts framed connections on a unix socket or loopback TCP
// listener and feeds them to one shared Engine. The engine is strictly
// serialized under a mutex — connections are concurrent, admissions are not —
// so a server session is as deterministic as the order frames win the lock.
// Reliable clients make that order the sequence order; open-loop clients are
// measuring overload, where arrival order is the experiment.
type Server struct {
	cfg Config

	ln net.Listener

	mu     sync.Mutex
	engine *Engine

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
	closeErr  error
}

// Listen binds a server. network is "unix" or "tcp" (keep tcp on loopback:
// the protocol has no auth).
func Listen(network, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s %s: %w", network, addr, err)
	}
	return &Server{cfg: cfg, ln: ln, engine: NewEngine(cfg), closed: make(chan struct{})}, nil
}

// Addr returns the bound address (useful with "tcp 127.0.0.1:0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Engine returns the current session engine. Only read it after Close (or
// otherwise quiescing the accept loop): connection goroutines mutate it.
func (s *Server) Engine() *Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine
}

// SessionDone reports whether the current session has finished. Safe to call
// concurrently with connection handling (unlike Engine).
func (s *Server) SessionDone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Finished()
}

// Serve accepts connections until Close. It returns nil on a close-triggered
// shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn answers one connection. A frame the read buffer holds whole is
// decoded in place (peekFrame) and discarded once handled; HandleFrame keeps
// no reference to a body. Responses collect in bw and go out in one write per
// drained read: bw is flushed when the read buffer holds no complete frame
// (the next read may block, so nothing may wait behind it),
// before a frame that can tick the daemon (no ack waits behind a reaction),
// and on every exit. The bytes the peer reads are the same as with a flush
// per frame; only their grouping into writes differs.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64*1024)
	bw := bufio.NewWriterSize(conn, 64*1024)
	// Pending responses go out on every exit; the connection closes right
	// after, so a failed flush has no one left to tell.
	defer bw.Flush()
	var out []byte
	for {
		fr, size, err := peekFrame(br)
		if size == 0 && err == nil {
			if err := bw.Flush(); err != nil {
				return
			}
			fr, err = ReadFrame(br)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				// Best-effort decode diagnostic; the conn dies either way.
				bw.Write(AppendFrame(out[:0], errFrame(0, err.Error())))
			}
			return
		}
		s.mu.Lock()
		if fr.Type == MsgHello && s.engine.Finished() {
			// A hello after a finished session starts a fresh one.
			s.engine = NewEngine(s.cfg)
		}
		if bw.Buffered() > 0 && s.engine.mayReact(fr) {
			s.mu.Unlock()
			if err := bw.Flush(); err != nil {
				return
			}
			s.mu.Lock()
		}
		resps := s.engine.HandleFrame(fr)
		s.mu.Unlock()
		// fr.Body is no longer read: let the next read reuse its bytes.
		_, _ = br.Discard(size) // the size bytes are buffered: Discard cannot fail
		out = out[:0]
		for i := range resps {
			out = AppendFrame(out, resps[i])
		}
		if _, err := bw.Write(out); err != nil {
			return
		}
	}
}

// peekFrame decodes the frame at the head of br's buffer where it lies, if
// all of it is buffered and its length is in range, and returns its size,
// length prefix included. The frame's Body aliases the buffer: it is valid
// until br is next read, and the caller discards size bytes once done with
// it. Anything else gives size 0 and no error, and is ReadFrame's to read or
// reject. A partial frame does not count: reading its remainder may block,
// and the peer may send it only after it has read our pending responses.
func peekFrame(br *bufio.Reader) (fr Frame, size int, err error) {
	b, _ := br.Peek(br.Buffered())
	n, k := binary.Uvarint(b)
	if k <= 0 || n == 0 || n > MaxFrame || uint64(len(b)-k) < n {
		return Frame{}, 0, nil
	}
	size = k + int(n)
	fr, err = ParsePayload(b[k:size])
	return fr, size, err
}

// Close shuts the listener and waits for every connection goroutine to
// drain, after which Engine() is safe to inspect.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.closeErr = s.ln.Close()
		s.wg.Wait()
	})
	return s.closeErr
}
