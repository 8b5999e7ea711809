package transport

import (
	"bufio"
	"bytes"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// BuildSession renders a script as the canonical frame sequence a client
// sends: hello, then per slot the slot's events followed by a tick to the
// next epoch, then finish. Sequence numbers are assigned in order from 0.
// budgetSlots stamps every event's deadline budget (0 defers to the server
// default). A slot's events keep their script order; an event with a
// negative slot is never sent.
func BuildSession(s *serve.Script, budgetSlots int) ([]Frame, error) {
	numSlots := max(s.Meta.NumSlots, 0)
	for i := range s.Events {
		numSlots = max(numSlots, s.Events[i].Slot+1)
	}
	// Bucket the event indices by slot once, each bucket in script order.
	bySlot := make([][]int, numSlots)
	sent := 0
	for i := range s.Events {
		if slot := s.Events[i].Slot; slot >= 0 {
			bySlot[slot] = append(bySlot[slot], i)
			sent++
		}
	}
	frames := make([]Frame, 0, 1+sent+len(bySlot)+1)
	add := func(t byte, body []byte) {
		frames = append(frames, Frame{Type: t, Seq: uint64(len(frames)), Body: body})
	}
	add(MsgHello, []byte(serve.FormatMeta(s.Meta)))
	for slot, idx := range bySlot {
		for _, i := range idx {
			line, err := serve.FormatEvent(&s.Events[i])
			if err != nil {
				return nil, fmt.Errorf("transport: event %d: %w", i, err)
			}
			add(MsgEvent, EventBody(budgetSlots, line))
		}
		add(MsgTick, TickBody(slot+1))
	}
	add(MsgFinish, nil)
	return frames, nil
}

// PlaySession drives a frame sequence through a fresh engine in process,
// optionally through a chaos link: event frames pass the impaired link
// (drops, duplicates, reordering), control frames are delivered reliably
// with held frames flushed first — the same discipline the open-loop socket
// client uses, so in-process sweeps and wire runs see the same stream. The
// encoded-then-decoded round trip is intentional: the sweep exercises the
// real codec.
func PlaySession(cfg Config, frames []Frame, lcfg *chaos.LinkConfig) (*Engine, error) {
	eng := NewEngine(cfg)
	feed := func(b []byte) error {
		fr, err := ReadFrame(bufio.NewReader(bytes.NewReader(b)))
		if err != nil {
			return err
		}
		eng.HandleFrame(fr)
		return nil
	}
	var link *chaos.Link
	if lcfg != nil {
		link = chaos.NewLink(*lcfg, feed)
	}
	for i := range frames {
		if link != nil && frames[i].Type == MsgEvent {
			if err := link.Send(Encode(frames[i])); err != nil {
				return eng, err
			}
			continue
		}
		if link != nil {
			if err := link.Flush(); err != nil {
				return eng, err
			}
		}
		if err := feed(Encode(frames[i])); err != nil {
			return eng, err
		}
	}
	if link != nil {
		if err := link.Flush(); err != nil {
			return eng, err
		}
	}
	return eng, nil
}
