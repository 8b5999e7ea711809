package transport

import "testing"

// TestOrderedHoldBufferBounded feeds an ordered engine with the default
// MaxQueue of 0 — no queue bound — frames far ahead of a gap that never
// fills: first maximal bodies, then empty ones. What it holds must stay
// under maxHeldBytes, frames past the cap must be dropped without an ack,
// and filling the gap must release the held run behind it.
func TestOrderedHoldBufferBounded(t *testing.T) {
	e := NewEngine(Config{Ordered: true})
	checkHeld := func(when string) {
		t.Helper()
		size := 0
		for _, fr := range e.held {
			size += len(fr.Body) + heldFrameOverhead
		}
		if size > maxHeldBytes {
			t.Fatalf("%s: %d frames hold %d bytes, cap %d", when, len(e.held), size, maxHeldBytes)
		}
		if e.heldBytes != size {
			t.Fatalf("%s: heldBytes %d, held frames charge %d", when, e.heldBytes, size)
		}
	}
	seq := uint64(1) // seq 0, the gap, is withheld
	dropped := 0
	send := func(body []byte) {
		if out := e.HandleFrame(Frame{Type: MsgEvent, Seq: seq, Body: body}); out == nil {
			dropped++
		}
		seq++
	}
	body := make([]byte, MaxFrame)
	for i := 0; i < 20; i++ {
		send(body)
	}
	checkHeld("after 20 maximal frames")
	if dropped == 0 {
		t.Fatal("no maximal frame was dropped")
	}
	for i := 0; i < maxHeldBytes/heldFrameOverhead; i++ {
		send(nil)
	}
	checkHeld("after a flood of empty frames")
	maximal := 0
	for _, fr := range e.held {
		if len(fr.Body) == MaxFrame {
			maximal++
		}
	}
	e.HandleFrame(Frame{Type: MsgHello, Seq: 0})
	checkHeld("after the gap filled")
	if len(e.held) == 0 || maximal == 0 || e.nextSeq != uint64(1+maximal) {
		t.Fatalf("filling the gap released up to seq %d of %d maximal frames, %d still held", e.nextSeq, maximal, len(e.held))
	}
}
