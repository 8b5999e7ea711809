package transport

import (
	"bufio"
	"bytes"
	"math"
	"testing"
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
	if err != nil || budget != 5 || line != "arrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1 0x1p-05" {
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
