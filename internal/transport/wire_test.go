package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: MsgHello, Seq: 0, Body: []byte("meta nodes=4")},
		{Type: MsgEvent, Seq: 7, Attempt: 3, Body: EventBody(2, "depart 1 0")},
		{Type: MsgTick, Seq: 8, Body: TickBody(12)},
		{Type: MsgFinish, Seq: 9},
		{Type: MsgAck, Seq: 7, Body: AckBody(StatusShed, "deadline")},
		{Type: MsgResult, Seq: 9, Body: []byte("admitted=3")},
		{Type: MsgError, Seq: 0, Body: []byte("boom")},
		// Varint-width boundaries in seq, attempt and the length prefix.
		{Type: MsgEvent, Seq: 127, Attempt: 128, Body: bytes.Repeat([]byte("x"), 123)},
		{Type: MsgEvent, Seq: 1 << 63, Attempt: math.MaxUint64, Body: bytes.Repeat([]byte("y"), 1<<14)},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Attempt != want.Attempt ||
			!bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(br); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

func TestEventBodyRoundTrip(t *testing.T) {
	b := EventBody(5, "arrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1 0x1p-05")
	budget, line, err := ParseEventBody(b)
	if err != nil || budget != 5 || string(line) != "arrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1 0x1p-05" {
		t.Fatalf("got (%d, %q, %v)", budget, line, err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var wire bytes.Buffer
	// A length prefix claiming 100 MB must be rejected before allocation.
	wire.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x40})
	if _, err := ReadFrame(bufio.NewReader(&wire)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// FuzzParsePayload is the decoder-hardening target: arbitrary bytes either
// decode into a frame that re-encodes to an equivalent payload, or error —
// never panic.
func FuzzParsePayload(f *testing.F) {
	f.Add(Encode(Frame{Type: MsgHello, Body: []byte("meta nodes=2")})[1:])
	f.Add(Encode(Frame{Type: MsgEvent, Seq: 1, Body: EventBody(0, "depart 0 1")})[1:])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{MsgTick, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParsePayload(data)
		if err != nil {
			return
		}
		enc := Encode(fr)
		fr2, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("re-decode of encoded frame failed: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Seq != fr.Seq || fr2.Attempt != fr.Attempt ||
			!bytes.Equal(fr2.Body, fr.Body) {
			t.Fatalf("frame not stable: %+v vs %+v", fr, fr2)
		}
	})
}

// refReadFrame is the reference frame reader: the length prefix through
// binary.ReadUvarint, then a fresh payload through io.ReadFull.
func refReadFrame(br *bufio.Reader) (Frame, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return Frame{}, err
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

// readPeeked reads a frame the way Server.handleConn does: in place through
// peekFrame when it is buffered whole, else through ReadFrame.
func readPeeked(br *bufio.Reader) (Frame, error) {
	fr, size, err := peekFrame(br)
	if size == 0 && err == nil {
		return ReadFrame(br)
	}
	fr.Body = bytes.Clone(fr.Body)
	br.Discard(size)
	return fr, err
}

// FuzzReadFrame holds ReadFrame's buffered length path, and the server's
// in-place reads, to the reference on arbitrary streams read through a
// 16-byte bufio.Reader (so length prefixes straddle refills), over the whole
// stream and over one byte per read: every call returns the same frame and
// the same error. The seeds cover a buffered zero-length frame between two
// good ones, a prefix that overflows 64 bits, a truncated prefix, an
// oversized length and frames longer than the buffer.
//
//	go test -run '^$' -fuzz FuzzReadFrame -fuzztime 20s ./internal/transport
func FuzzReadFrame(f *testing.F) {
	long := Encode(Frame{Type: MsgEvent, Seq: 300, Attempt: 2,
		Body: EventBody(3, "arrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1 0x1p-05")})
	tick := Encode(Frame{Type: MsgTick, Seq: 1, Body: TickBody(2)})
	f.Add(long)
	f.Add(append(append(append([]byte{}, tick...), 0), tick...))
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 0x01, MsgTick))
	f.Add([]byte{0x80})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x40})
	f.Add(append(append(Encode(Frame{Type: MsgFinish, Seq: 9}), long...), long[:20]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, wrap := range []func(io.Reader) io.Reader{
			func(r io.Reader) io.Reader { return r }, iotest.OneByteReader,
		} {
			reader := func() *bufio.Reader { return bufio.NewReaderSize(wrap(bytes.NewReader(data)), 16) }
			want, got, peeked := reader(), reader(), reader()
			// Every call consumes a byte or reaches the end of the stream.
			for i := 0; i <= len(data)+1; i++ {
				fw, ew := refReadFrame(want)
				for _, r := range []struct {
					name string
					read func(*bufio.Reader) (Frame, error)
					br   *bufio.Reader
				}{{"ReadFrame", ReadFrame, got}, {"peekFrame", readPeeked, peeked}} {
					fg, eg := r.read(r.br)
					if (eg == nil) != (ew == nil) || (eg != nil && eg.Error() != ew.Error()) {
						t.Fatalf("%s call %d: error %v, reference error %v", r.name, i, eg, ew)
					}
					if fg.Type != fw.Type || fg.Seq != fw.Seq || fg.Attempt != fw.Attempt ||
						!bytes.Equal(fg.Body, fw.Body) {
						t.Fatalf("%s call %d: frame %+v, reference %+v", r.name, i, fg, fw)
					}
				}
				if errors.Is(ew, io.EOF) {
					break
				}
			}
		}
	})
}
