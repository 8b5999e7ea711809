package transport

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/stats"
)

// buildSessionNaive is the reference BuildSession: it rescans every event
// once per slot.
func buildSessionNaive(s *serve.Script, budgetSlots int) ([]Frame, error) {
	var frames []Frame
	seq := uint64(0)
	add := func(t byte, body []byte) {
		frames = append(frames, Frame{Type: t, Seq: seq, Body: body})
		seq++
	}
	add(MsgHello, []byte(serve.FormatMeta(s.Meta)))
	maxSlot := s.Meta.NumSlots - 1
	for i := range s.Events {
		if s.Events[i].Slot > maxSlot {
			maxSlot = s.Events[i].Slot
		}
	}
	for slot := 0; slot <= maxSlot; slot++ {
		for i := range s.Events {
			if s.Events[i].Slot != slot {
				continue
			}
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

// genScript draws a script whose events come in no slot order: some slots
// are empty, some events fall past NumSlots, one sits at a negative slot,
// and with bad set one event has a kind FormatEvent rejects.
func genScript(seed int64, bad bool) *serve.Script {
	r := stats.NewRand(seed)
	s := &serve.Script{Meta: serve.Meta{Nodes: 6, Radius: 0.4, NumSlots: 1 + r.Intn(8)}}
	n := r.Intn(40)
	for i := 0; i < n; i++ {
		ev := serve.Event{Slot: r.Intn(2*s.Meta.NumSlots + 3), Kind: serve.EventKind(r.Intn(4)), ID: i, Node: r.Intn(6)}
		switch ev.Kind {
		case serve.EvArrive:
			ev.Req = msvc.Request{ID: i, Home: ev.Node, Chain: []int{r.Intn(5), r.Intn(5)},
				EdgeData: []float64{r.Float64()}, DataIn: r.Float64(), DataOut: r.Float64(), Deadline: 2}
		case serve.EvFault:
			ev.Fault = chaos.Event{Kind: chaos.NodeCrash, Node: ev.Node}
		}
		s.Events = append(s.Events, ev)
	}
	s.Events = append(s.Events, serve.Event{Slot: -1 - r.Intn(3), Kind: serve.EvDepart, ID: n})
	if bad && len(s.Events) > 1 {
		s.Events[r.Intn(len(s.Events)-1)].Kind = serve.EventKind(99)
	}
	r.Shuffle(len(s.Events), func(i, j int) { s.Events[i], s.Events[j] = s.Events[j], s.Events[i] })
	return s
}

// TestBuildSessionMatchesNaive: bucketing the events by slot in one pass
// must render the very frames — sequence numbers and bodies byte for byte —
// and the very error the per-slot rescan does.
func TestBuildSessionMatchesNaive(t *testing.T) {
	failed := 0
	for seed := int64(1); seed <= 300; seed++ {
		s := genScript(seed, seed%5 == 0)
		budget := int(seed % 3)
		got, gotErr := BuildSession(s, budget)
		want, wantErr := buildSessionNaive(s, budget)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
		}
		if wantErr != nil {
			failed++
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d frames, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].Type != want[i].Type || got[i].Seq != want[i].Seq ||
				got[i].Attempt != want[i].Attempt || !bytes.Equal(got[i].Body, want[i].Body) {
				t.Fatalf("seed %d: frame %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
	if failed == 0 || failed > 60 {
		t.Fatalf("%d of 300 scripts fail to render; the generator no longer covers both paths", failed)
	}
}
