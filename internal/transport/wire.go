// Package transport is the serving daemon's overload-hardened frontend: a
// framed wire protocol over unix sockets, loopback TCP, or loopback HTTP that
// replaces script playback with a live request path. It comprises
//
//   - a framed wire codec (this file) carrying the exact per-event text
//     encoding scripts use (serve.FormatEvent), length-prefixed and
//     fuzz-safe: arbitrary bytes decode to an error, never a panic, and
//     frames are bounded so a hostile peer cannot force allocation;
//   - a deterministic admission engine (engine.go): bounded queues,
//     per-event deadline budgets in slots — an event whose budget is already
//     blown is rejected, not queued — and a per-epoch work-unit capacity
//     model that charges the previous epoch's reaction cost against the next
//     epoch's admission capacity, so an expensive control plane sheds load
//     exactly like a saturated server would;
//   - a circuit breaker around the solver/repair reaction path (breaker.go)
//     feeding a graceful-degradation ladder (guard.go): serve from the stale
//     placement, then offload to the pay-per-use cloud, its function cold
//     start priced by model.CloudConfig.ColdStart, then shed;
//   - a socket server (server.go), a loopback-HTTP frontend (http.go), and a
//     client with capped exponential backoff + seeded jitter retries
//     (client.go), deterministic under stats.SplitSeed("transport/retry").
//
// Sessions run in two disciplines. Ordered (reliable) sessions admit frames
// strictly in sequence-number order — chaos-injected drops, duplicates, and
// reorderings (chaos.Link) are fully masked by retransmission and dedup, the
// recorded serve.Script equals the sent one event for event, and a
// replay-mode session reproduces sim.Run bitwise. Unordered (shed) sessions
// admit frames as they arrive: a dropped frame's retransmit can land after
// its slot's deadline budget and is shed, which is the regime the
// ext_overload sweep measures. Either way every admitted event enters the
// recorded stream exactly once (sequence-number dedup, asserted under the
// soclinvariants tag).
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// MaxFrame bounds one frame's payload so a hostile length prefix cannot
// force allocation. Event lines are well under 1 KiB; 1 MiB leaves room for
// batched extensions.
const MaxFrame = 1 << 20

// Message types. The zero value is invalid so an all-zero frame fails to
// parse.
const (
	// MsgHello opens a session; the body is the script meta line
	// (serve.FormatMeta) the server rebuilds the scenario from.
	MsgHello = byte(iota + 1)
	// MsgEvent carries one event; the body is a uvarint deadline budget in
	// slots (0 = server default) followed by the event's script line.
	MsgEvent
	// MsgTick advances the daemon; the body is a uvarint target epoch.
	// Target epochs are monotonic: a tick at or below the current epoch is a
	// no-op, so duplicated or dropped ticks are absorbed by later ones.
	MsgTick
	// MsgFinish ends the session: the server drains the queue through the
	// script horizon and answers with MsgResult.
	MsgFinish
	// MsgAck is the server's per-frame disposition (body: status byte +
	// reason text).
	MsgAck
	// MsgResult carries the session summary as a key=value text line.
	MsgResult
	// MsgError reports a fatal session error (body: message).
	MsgError
)

// maxMsg is the highest valid message type.
const maxMsg = MsgError

// Ack statuses.
const (
	// StatusAccepted: the event was admitted into the daemon's stream.
	StatusAccepted = byte(iota + 1)
	// StatusShed: the event was rejected; the reason text says why
	// ("deadline", "queue-full", "overload", "finished").
	StatusShed
	// StatusDuplicate: the frame's sequence number was already seen; the
	// original disposition stands.
	StatusDuplicate
	// StatusOK acknowledges non-event frames (hello, tick, finish).
	StatusOK
)

// Frame is one decoded protocol frame. Seq orders and dedups frames within a
// session; Attempt distinguishes retransmissions of the same frame on the
// wire (chaos decisions are drawn per attempt) and is ignored by the
// receiver's dedup.
type Frame struct {
	Type    byte
	Seq     uint64
	Attempt uint64
	Body    []byte
}

// AppendFrame appends the frame, length prefix first, to dst and returns the
// extended slice. It is the only frame encoder: carriers append a window of
// responses into one reused buffer.
func AppendFrame(dst []byte, f Frame) []byte {
	n := 1 + uvarintLen(f.Seq) + uvarintLen(f.Attempt) + len(f.Body)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, f.Type)
	dst = binary.AppendUvarint(dst, f.Seq)
	dst = binary.AppendUvarint(dst, f.Attempt)
	return append(dst, f.Body...)
}

// Encode renders the frame with its length prefix into a new slice.
func Encode(f Frame) []byte { return AppendFrame(nil, f) }

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// ParsePayload decodes a frame payload (the bytes after the length prefix).
// Malformed input returns an error, never panics.
func ParsePayload(p []byte) (Frame, error) {
	if len(p) == 0 {
		return Frame{}, fmt.Errorf("transport: empty frame")
	}
	if len(p) > MaxFrame {
		return Frame{}, fmt.Errorf("transport: frame payload %d exceeds MaxFrame", len(p))
	}
	f := Frame{Type: p[0]}
	if f.Type < MsgHello || f.Type > maxMsg {
		return Frame{}, fmt.Errorf("transport: unknown message type %d", f.Type)
	}
	rest := p[1:]
	var n int
	f.Seq, n = binary.Uvarint(rest)
	if n <= 0 {
		return Frame{}, fmt.Errorf("transport: bad seq varint")
	}
	rest = rest[n:]
	f.Attempt, n = binary.Uvarint(rest)
	if n <= 0 {
		return Frame{}, fmt.Errorf("transport: bad attempt varint")
	}
	f.Body = rest[n:]
	return f, nil
}

// ReadFrame decodes the next length-prefixed frame from the stream. A length
// prefix beyond MaxFrame is rejected before any allocation. The frame's Body
// is a fresh slice the caller owns.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	// The length prefix is decoded from the buffered bytes when all of it is
	// there; a prefix that straddles a refill, or is malformed, is read the
	// long way, which reports what is wrong with it.
	b, _ := br.Peek(br.Buffered())
	n, k := binary.Uvarint(b)
	if k > 0 {
		_, _ = br.Discard(k) // the k bytes are buffered: Discard cannot fail
	} else {
		var err error
		if n, err = binary.ReadUvarint(br); err != nil {
			return Frame{}, err
		}
	}
	if n == 0 || n > MaxFrame {
		return Frame{}, fmt.Errorf("transport: frame length %d out of range (max %d)", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Frame{}, fmt.Errorf("transport: short frame: %w", err)
	}
	return ParsePayload(payload)
}

// EventBody renders a MsgEvent body: the deadline budget followed by the
// event's script line.
func EventBody(budgetSlots int, line string) []byte {
	b := binary.AppendUvarint(nil, uint64(budgetSlots))
	return append(b, line...)
}

// ParseEventBody splits a MsgEvent body into its budget and line. The line
// aliases body: serve.ParseEventLine reads it in place.
func ParseEventBody(body []byte) (budgetSlots int, line []byte, err error) {
	v, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, fmt.Errorf("transport: bad event budget varint")
	}
	if v > 1<<31 {
		return 0, nil, fmt.Errorf("transport: event budget %d out of range", v)
	}
	return int(v), body[n:], nil
}

// TickBody renders a MsgTick body.
func TickBody(target int) []byte {
	return binary.AppendUvarint(nil, uint64(target))
}

// ParseTickBody decodes a MsgTick body.
func ParseTickBody(body []byte) (int, error) {
	v, n := binary.Uvarint(body)
	if n <= 0 || n != len(body) {
		return 0, fmt.Errorf("transport: bad tick body")
	}
	if v > 1<<31 {
		return 0, fmt.Errorf("transport: tick target %d out of range", v)
	}
	return int(v), nil
}

// AckBody renders a MsgAck body.
func AckBody(status byte, reason string) []byte {
	return append([]byte{status}, reason...)
}

// bareAcks holds the body of every ack without a reason: bareAcks[s:s+1] is
// AckBody(s, ""). Those bodies are shared, so they are read-only; the
// three-index slice keeps an append from writing into the table.
var bareAcks = []byte{0, StatusAccepted, StatusShed, StatusDuplicate, StatusOK}

// ackBody is AckBody, sharing the body of an ack without a reason.
func ackBody(status byte, reason string) []byte {
	if reason == "" && int(status) < len(bareAcks) {
		return bareAcks[status : status+1 : status+1]
	}
	return AckBody(status, reason)
}

// ParseAckBody decodes a MsgAck body.
func ParseAckBody(body []byte) (status byte, reason string, err error) {
	if len(body) == 0 {
		return 0, "", fmt.Errorf("transport: empty ack body")
	}
	if body[0] < StatusAccepted || body[0] > StatusOK {
		return 0, "", fmt.Errorf("transport: unknown ack status %d", body[0])
	}
	return body[0], string(body[1:]), nil
}
