package transport

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"sync"
)

// HTTPFrontend adapts the engine to a loopback-HTTP surface: the same frames,
// batched in request/response bodies instead of a socket stream. It exists
// for environments where a raw socket is awkward (port-forwarded debugging,
// curl-able smoke checks); the wire format and admission semantics are
// identical to the socket server's.
//
//	POST /v1/frames   body: length-prefixed frames → body: response frames
//	GET  /v1/summary  current session summary (text)
type HTTPFrontend struct {
	cfg Config

	mu     sync.Mutex
	engine *Engine
}

// NewHTTPFrontend builds the handler with an idle engine.
func NewHTTPFrontend(cfg Config) *HTTPFrontend {
	return &HTTPFrontend{cfg: cfg, engine: NewEngine(cfg)}
}

// Engine returns the current session engine; quiesce requests first.
func (h *HTTPFrontend) Engine() *Engine {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.engine
}

// SessionDone reports whether the current session has finished. Safe to call
// concurrently with request handling (unlike Engine).
func (h *HTTPFrontend) SessionDone() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.engine.Finished()
}

// ServeHTTP implements http.Handler.
func (h *HTTPFrontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/frames":
		h.serveFrames(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/v1/summary":
		h.mu.Lock()
		sum := h.engine.Summary()
		h.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, sum+"\n")
	default:
		http.NotFound(w, r)
	}
}

func (h *HTTPFrontend) serveFrames(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, 8*MaxFrame))
	var out []byte
	h.mu.Lock()
	for {
		fr, err := ReadFrame(br)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			h.mu.Unlock()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if fr.Type == MsgHello && h.engine.Finished() {
			h.engine = NewEngine(h.cfg)
		}
		for _, resp := range h.engine.HandleFrame(fr) {
			out = AppendFrame(out, resp)
		}
	}
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out)
}
