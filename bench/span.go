package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was made; Parent indexes the span that was
// open when this one began (-1 at the top), and Op numbers the operation (one
// solve, one tick, one epoch round trip) all spans of that operation share.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Op     int32
}

// tracer records spans in memory around the bench's own calls into the
// program; nothing inside the program knows about it. It is used from one
// goroutine. A nil tracer is the untraced run: begin and end do nothing, and
// the drivers install no timing hook at all.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	op    int32
}

func newTracer() *tracer {
	// Sized up front so that growing the slice does not show up as program
	// allocations in serve.allocs_per_tick.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// reset drops the recorded spans; each traced pass starts from an empty
// tracer so only the last pass is kept for the dump.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.spans, t.open, t.op = t.spans[:0], t.open[:0], 0
}

// nextOp starts a new operation.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// layerTime sums what the spans of one name cost.
type layerTime struct {
	Calls int
	Total time.Duration // Σ (End − Start)
	Self  time.Duration // Total minus the time covered by direct children
}

// meanUS and meanMS are the mean span duration per call.
func (l layerTime) meanUS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.Total) / float64(l.Calls) / 1e3
}

func (l layerTime) meanMS() float64 { return l.meanUS() / 1e3 }

func (l layerTime) selfMeanUS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.Self) / float64(l.Calls) / 1e3
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the durations of its direct children: children of one parent never
// overlap here because the tracer runs on one goroutine.
func selfTimes(spans []span) map[string]layerTime {
	child := make([]int64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].End - spans[i].Start
		}
	}
	out := make(map[string]layerTime)
	for i := range spans {
		d := spans[i].End - spans[i].Start
		l := out[spans[i].Name]
		l.Calls++
		l.Total += time.Duration(d)
		l.Self += time.Duration(d - child[i])
		out[spans[i].Name] = l
	}
	return out
}

// maxDumpSpans bounds a trace file; a wire pass records a few hundred
// thousand spans and the head of the run shows the same shape as the rest.
const maxDumpSpans = 100000

// traceDump is the on-disk form of one traced pass: a name table and one
// [name, start_ns, end_ns, parent, op] row per span.
type traceDump struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Names     []string   `json:"names"`
	Columns   []string   `json:"columns"`
	Spans     [][5]int64 `json:"spans"`
	Truncated bool       `json:"truncated"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	d := traceDump{Workload: workload, Seed: seed,
		Columns: []string{"name", "start_ns", "end_ns", "parent", "op"}}
	if len(spans) > maxDumpSpans {
		spans, d.Truncated = spans[:maxDumpSpans], true
	}
	idx := make(map[string]int64)
	d.Spans = make([][5]int64, len(spans))
	for i, s := range spans {
		n, ok := idx[s.Name]
		if !ok {
			n = int64(len(d.Names))
			idx[s.Name] = n
			d.Names = append(d.Names, s.Name)
		}
		d.Spans[i] = [5]int64{n, s.Start, s.End, int64(s.Parent), int64(s.Op)}
	}
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
