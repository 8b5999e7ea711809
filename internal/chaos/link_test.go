package chaos

import (
	"bytes"
	"fmt"
	"testing"
)

func playLink(cfg LinkConfig, frames [][]byte) ([][]byte, LinkStats) {
	var out [][]byte
	l := NewLink(cfg, func(b []byte) error {
		out = append(out, append([]byte(nil), b...))
		return nil
	})
	for _, f := range frames {
		if err := l.Send(f); err != nil {
			panic(err)
		}
	}
	if err := l.Flush(); err != nil {
		panic(err)
	}
	return out, l.Stats()
}

func testFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = []byte(fmt.Sprintf("frame-%03d attempt=0", i))
	}
	return frames
}

func TestLinkDeterministic(t *testing.T) {
	cfg := LinkConfig{Seed: 11, Drop: 0.2, Dup: 0.15, Delay: 0.25}
	frames := testFrames(200)
	outA, stA := playLink(cfg, frames)
	outB, stB := playLink(cfg, frames)
	if stA != stB {
		t.Fatalf("stats diverge: %+v vs %+v", stA, stB)
	}
	if len(outA) != len(outB) {
		t.Fatalf("delivery counts diverge: %d vs %d", len(outA), len(outB))
	}
	for i := range outA {
		if !bytes.Equal(outA[i], outB[i]) {
			t.Fatalf("delivery %d diverges: %q vs %q", i, outA[i], outB[i])
		}
	}
	if stA.Dropped == 0 || stA.Duplicated == 0 || stA.Delayed == 0 {
		t.Fatalf("chaos inactive at these rates: %+v", stA)
	}
}

func TestLinkAccounting(t *testing.T) {
	_, st := playLink(LinkConfig{Seed: 3, Drop: 0.3, Dup: 0.2, Delay: 0.3}, testFrames(300))
	if st.Sent != 300 {
		t.Fatalf("sent = %d, want 300", st.Sent)
	}
	// Every copy that enters the link (original or duplicate) is either
	// delivered or dropped; Flush leaves nothing held.
	if st.Delivered+st.Dropped != st.Sent+st.Duplicated {
		t.Fatalf("accounting broken: delivered %d + dropped %d != sent %d + dup %d",
			st.Delivered, st.Dropped, st.Sent, st.Duplicated)
	}
}

// TestLinkContentKeyed pins the retransmission contract: a frame's fate is a
// function of its content, so a retransmit with a bumped attempt counter
// redraws, while a byte-identical resend repeats its fate.
func TestLinkContentKeyed(t *testing.T) {
	cfg := LinkConfig{Seed: 7, Drop: 0.5}
	fate := func(frame []byte) bool {
		out, _ := playLink(cfg, [][]byte{frame})
		return len(out) > 0
	}
	redraws := 0
	for i := 0; i < 64; i++ {
		a := []byte(fmt.Sprintf("frame-%03d attempt=0", i))
		b := []byte(fmt.Sprintf("frame-%03d attempt=1", i))
		if fate(a) != fate(a) {
			t.Fatalf("identical frame %d changed fate between sends", i)
		}
		if fate(a) != fate(b) {
			redraws++
		}
	}
	if redraws == 0 {
		t.Fatal("bumping the attempt counter never redrew a frame's fate")
	}
}

func TestLinkDelayBounded(t *testing.T) {
	frames := testFrames(100)
	order := make(map[string]int, len(frames))
	for i, f := range frames {
		order[string(f)] = i
	}
	out, _ := playLink(LinkConfig{Seed: 19, Delay: 0.5}, frames)
	for pos, f := range out {
		sent := order[string(f)]
		// With no drops/dups a frame lands at most delayMax+1 slots past its
		// send position.
		if pos > sent+delayMax+1 {
			t.Fatalf("frame sent at %d delivered at %d, exceeds delay bound", sent, pos)
		}
	}
}
