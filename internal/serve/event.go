// Package serve is the long-running control plane over the placement stack:
// it owns a *live* substrate and placement and ingests an open event stream —
// request arrivals, departures, user moves, fault strikes and heals —
// reacting incrementally through the delta machinery (model.DeltaEvaluator,
// internal/repair) and only escalating to a full re-solve when the repaired
// score degrades past a configurable threshold. Its replay mode (re-plan
// from scratch every epoch, the paper's one-shot discipline) is the slot loop
// package sim drives over a closed workload trace.
//
// The package has three layers:
//
//   - events and scripts (this file): a deterministic, exactly
//     round-trippable text format for event streams, so a run can be
//     recorded, replayed, and compared bitwise (RunResult.Diff);
//   - policies (policy.go): the per-epoch reaction — one Policy interface
//     with none/repair/resolve implementations plus the daemon's threshold
//     escalation;
//   - the daemon (daemon.go, lifecycle.go): the event loop with admission
//     batching and the serverless instance lifecycle (idle tracking,
//     scale-to-zero, warm-pool sizing, cold-start pricing).
//
// Everything here is deterministic: the package draws no randomness, reads no
// clock except for duration telemetry, and two identically-seeded runs are
// asserted bit-identical by test.
package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/chaos"
	"repro/internal/msvc"
)

// EventKind discriminates stream events.
type EventKind int

// Stream event kinds.
const (
	// EvArrive admits a request: it stays active (re-served every epoch)
	// until a matching EvDepart.
	EvArrive EventKind = iota
	// EvDepart retires the active request with the event's ID.
	EvDepart
	// EvMove re-homes the active request with the event's ID to Node (user
	// mobility as seen by the control plane).
	EvMove
	// EvFault applies one chaos event to the daemon's substrate mask.
	EvFault
)

func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvDepart:
		return "depart"
	case EvMove:
		return "move"
	case EvFault:
		return "fault"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timestamped stream event. Slot is the epoch the event is due;
// the daemon admits every queued event with Slot <= the current epoch, in
// admission order (fault events strike after planning: the causal epoch
// timeline of Daemon.Tick).
type Event struct {
	Slot int
	Kind EventKind
	// ID names the request for arrive/depart/move. Arrivals must carry IDs
	// unique among concurrently-active requests; the daemon drops one whose
	// ID is already active.
	ID int
	// Node is the new home for EvMove.
	Node int
	// Req is the arrival payload (Req.ID == ID).
	Req msvc.Request
	// Fault is the chaos payload for EvFault (Fault.Slot is ignored; Slot
	// governs).
	Fault chaos.Event
}

// Meta is the scenario recipe a script carries so a daemon can rebuild the
// exact substrate and evaluation parameters of the run that recorded it.
type Meta struct {
	Nodes    int
	Radius   float64
	TopoSeed int64
	CatSeed  int64

	Lambda      float64
	Budget      float64
	SlotMinutes float64
	NumSlots    int
	// RouteSeed is the base of the per-epoch routing seed (seed+epoch). Only
	// RouteModeRandom consumes it.
	RouteSeed int64
	// CloudTransfer/CloudCompute configure the cloud fallback; both zero
	// means no fallback.
	CloudTransfer float64
	CloudCompute  float64
}

// Script is a recorded event stream plus its scenario recipe.
type Script struct {
	Meta   Meta
	Events []Event
}

// fmtF renders a float so it round-trips bitwise: hex significand form for
// finite values, the textual specials otherwise.
func fmtF(v float64) string {
	var b [32]byte
	return string(appendF(b[:0], v))
}

// appendF appends fmtF(v) to dst.
func appendF(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	case math.IsNaN(v):
		return append(dst, "NaN"...)
	}
	return strconv.AppendFloat(dst, v, 'x', -1, 64)
}

// text is what the parsers read: a script's string, or a wire frame's bytes
// parsed in place.
type text interface{ string | []byte }

// parseF is strconv.ParseFloat(s, 64). fmtF's spelling of a normal float is
// assembled into its bits directly; every other spelling, and every error, is
// strconv's.
func parseF[T text](s T) (float64, error) {
	if v, ok := parseHexNormal(s); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(s), 64)
}

// parseHexNormal decodes [-]0x1[.h{1,13}]p±d{1,4} with lower-case hex digits
// and an exponent in the normal range [-1022, 1023]: FormatFloat's 'x' form of
// a normal float. The significand fits its 52 fraction bits and the exponent
// its field, so the bits are exact, as strconv's are. ok is false for any
// other spelling.
func parseHexNormal[T text](s T) (v float64, ok bool) {
	var sign uint64
	i := 0
	if len(s) > 0 && s[0] == '-' {
		sign, i = 1<<63, 1
	}
	if len(s) < i+6 || s[i] != '0' || s[i+1] != 'x' || s[i+2] != '1' {
		return 0, false
	}
	i += 3
	var frac uint64
	shift := 52
	if s[i] == '.' {
		for i++; i < len(s) && s[i] != 'p'; i++ {
			d := hexDigit[s[i]]
			if d > 15 || shift == 0 {
				return 0, false
			}
			shift -= 4
			frac |= uint64(d) << shift
		}
		if shift == 52 {
			return 0, false
		}
	}
	if len(s) < i+3 || len(s) > i+6 || s[i] != 'p' || (s[i+1] != '+' && s[i+1] != '-') {
		return 0, false
	}
	exp := 0
	for j := i + 2; j < len(s); j++ {
		c := s[j] - '0'
		if c > 9 {
			return 0, false
		}
		exp = exp*10 + int(c)
	}
	if s[i+1] == '-' {
		exp = -exp
	}
	if exp < -1022 || exp > 1023 {
		return 0, false
	}
	return math.Float64frombits(sign | uint64(exp+1023)<<52 | frac), true
}

// hexDigit maps a lower-case hex digit to its value and any other byte to 16.
var hexDigit = func() (t [256]byte) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = byte(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = byte(c - 'a' + 10)
		default:
			t[c] = 16
		}
	}
	return t
}()

// faultKindNames maps the chaos.FaultKind String values back to kinds.
var faultKindNames = map[string]chaos.FaultKind{
	"node-crash":      chaos.NodeCrash,
	"node-recover":    chaos.NodeRecover,
	"link-degrade":    chaos.LinkDegrade,
	"link-restore":    chaos.LinkRestore,
	"storage-shrink":  chaos.StorageShrink,
	"storage-restore": chaos.StorageRestore,
}

// FormatMeta renders a meta line in the v1 text format (without the trailing
// newline). Floats use hexadecimal significand form so the line round-trips
// bit for bit through ParseMetaLine.
func FormatMeta(m Meta) string {
	return fmt.Sprintf("meta nodes=%d radius=%s toposeed=%d catseed=%d lambda=%s budget=%s slotmin=%s slots=%d routeseed=%d cloudtransfer=%s cloudcompute=%s",
		m.Nodes, fmtF(m.Radius), m.TopoSeed, m.CatSeed, fmtF(m.Lambda), fmtF(m.Budget),
		fmtF(m.SlotMinutes), m.NumSlots, m.RouteSeed, fmtF(m.CloudTransfer), fmtF(m.CloudCompute))
}

// ParseMetaLine parses a line produced by FormatMeta (with or without the
// leading "meta" directive).
func ParseMetaLine(line string) (Meta, error) {
	f := strings.Fields(line)
	if len(f) > 0 && f[0] == "meta" {
		f = f[1:]
	}
	var m Meta
	if err := parseMeta(f, &m); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// FormatEvent renders one event as its script line (without the trailing
// newline) — the same per-event encoding WriteScript emits and the framed
// wire codec (internal/transport) carries, so a wire-delivered event
// round-trips bit for bit exactly like a scripted one.
func FormatEvent(e *Event) (string, error) {
	var buf [128]byte
	b, err := appendEvent(buf[:0], e)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendEvent appends FormatEvent(e) to b.
func appendEvent(b []byte, e *Event) ([]byte, error) {
	switch e.Kind {
	case EvArrive:
		b = appendInt(append(b, "arrive"...), e.Slot)
		b = appendInt(appendInt(b, e.ID), e.Req.Home)
		b = appendF(append(b, ' '), e.Req.DataIn)
		b = appendF(append(b, ' '), e.Req.DataOut)
		b = appendF(append(b, ' '), e.Req.Deadline)
		b = append(b, ' ')
		for t, svc := range e.Req.Chain {
			if t > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(svc), 10)
		}
		b = append(b, ' ')
		if len(e.Req.EdgeData) == 0 {
			return append(b, '-'), nil
		}
		for t, v := range e.Req.EdgeData {
			if t > 0 {
				b = append(b, ',')
			}
			b = appendF(b, v)
		}
		return b, nil
	case EvDepart:
		return appendInt(appendInt(append(b, "depart"...), e.Slot), e.ID), nil
	case EvMove:
		return appendInt(appendInt(appendInt(append(b, "move"...), e.Slot), e.ID), e.Node), nil
	case EvFault:
		f := e.Fault
		b = append(appendInt(append(b, "fault"...), e.Slot), ' ')
		b = append(b, f.Kind.String()...)
		switch f.Kind {
		case chaos.LinkDegrade, chaos.LinkRestore:
			return appendF(append(appendInt(appendInt(b, f.A), f.B), ' '), f.Factor), nil
		case chaos.StorageShrink, chaos.StorageRestore:
			return appendF(append(appendInt(b, f.Node), ' '), f.Factor), nil
		case chaos.NodeCrash, chaos.NodeRecover:
			return appendInt(b, f.Node), nil
		default:
			return nil, fmt.Errorf("serve: cannot serialize fault kind %v", f.Kind)
		}
	default:
		return nil, fmt.Errorf("serve: cannot serialize event kind %v", e.Kind)
	}
}

// appendInt appends a space and v.
func appendInt(b []byte, v int) []byte {
	return strconv.AppendInt(append(b, ' '), int64(v), 10)
}

// fields walks a line's whitespace-separated fields, split exactly as
// strings.Fields splits them (unicode.IsSpace separators), one field per
// call and without building a slice. The fields alias the line.
type fields[T text] struct{ rest T }

// next returns the next field, or an empty one once the line is exhausted.
func (f *fields[T]) next() T {
	i := scanSpace(f.rest, 0, true)
	j := scanSpace(f.rest, i, false)
	w := f.rest[i:j]
	f.rest = f.rest[j:]
	return w
}

// fill stores the remaining fields in dst and returns how many there were;
// fields past len(dst) are counted, not stored.
func (f *fields[T]) fill(dst []T) int {
	n := 0
	for w := f.next(); len(w) > 0; w = f.next() {
		if n < len(dst) {
			dst[n] = w
		}
		n++
	}
	return n
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// scanSpace returns the index of the first rune at or after s[i] for which
// unicode.IsSpace is not space, or len(s). An ASCII byte is decided by
// asciiSpace alone; only non-ASCII bytes are decoded.
func scanSpace[T text](s T, i int, space bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if unicode.IsSpace(r) != space {
			return i
		}
		i += w
	}
	return i
}

// ParseEventLine parses one event line (arrive/depart/move/fault) produced by
// FormatEvent, from a string or in place from bytes: the event keeps nothing
// of line. Malformed input returns an error, never panics.
func ParseEventLine[T text](line T) (Event, error) {
	f := fields[T]{line}
	directive := f.next()
	if len(directive) == 0 {
		return Event{}, fmt.Errorf("serve: empty event line")
	}
	return parseEventFields(directive, &f)
}

// parseEventFields parses the fields after an event line's directive.
func parseEventFields[T text](directive T, f *fields[T]) (Event, error) {
	var a [8]T
	switch string(directive) {
	case "arrive":
		if n := f.fill(a[:]); n != 8 {
			return Event{}, fmt.Errorf("arrive wants 8 fields, got %d", n)
		}
		ev := Event{Kind: EvArrive}
		var err error
		if ev.Slot, err = strconv.Atoi(string(a[0])); err == nil {
			ev.ID, err = strconv.Atoi(string(a[1]))
		}
		if err == nil {
			ev.Req.Home, err = strconv.Atoi(string(a[2]))
		}
		if err == nil {
			ev.Req.DataIn, err = parseF(a[3])
		}
		if err == nil {
			ev.Req.DataOut, err = parseF(a[4])
		}
		if err == nil {
			ev.Req.Deadline, err = parseF(a[5])
		}
		if err != nil {
			return Event{}, err
		}
		ev.Req.Chain = make([]int, 0, countComma(a[6])+1)
		for rest, more := a[6], true; more; {
			var c T
			c, rest, more = cutComma(rest)
			svc, err := strconv.Atoi(string(c))
			if err != nil {
				return Event{}, err
			}
			ev.Req.Chain = append(ev.Req.Chain, svc)
		}
		if string(a[7]) != "-" {
			ev.Req.EdgeData = make([]float64, 0, countComma(a[7])+1)
			for rest, more := a[7], true; more; {
				var c T
				c, rest, more = cutComma(rest)
				v, err := parseF(c)
				if err != nil {
					return Event{}, err
				}
				ev.Req.EdgeData = append(ev.Req.EdgeData, v)
			}
		}
		if len(ev.Req.EdgeData) != len(ev.Req.Chain)-1 {
			return Event{}, fmt.Errorf("edge data length %d != chain length %d - 1",
				len(ev.Req.EdgeData), len(ev.Req.Chain))
		}
		ev.Req.ID = ev.ID
		return ev, nil
	case "depart", "move":
		ev, want := Event{Kind: EvDepart}, 2
		if string(directive) == "move" {
			ev.Kind, want = EvMove, 3
		}
		if f.fill(a[:want]) != want {
			return Event{}, fmt.Errorf("%s wants %d fields", string(directive), want)
		}
		var err error
		if ev.Slot, err = strconv.Atoi(string(a[0])); err == nil {
			ev.ID, err = strconv.Atoi(string(a[1]))
		}
		if err == nil && ev.Kind == EvMove {
			ev.Node, err = strconv.Atoi(string(a[2]))
		}
		if err != nil {
			return Event{}, err
		}
		return ev, nil
	case "fault":
		// Six slots: a sixth field fails every kind's arity check below.
		n := min(f.fill(a[:6]), 6)
		return parseFault(a[:n])
	default:
		return Event{}, fmt.Errorf("unknown directive %q", string(directive))
	}
}

// countComma counts the commas in s.
func countComma[T text](s T) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			n++
		}
	}
	return n
}

// cutComma is strings.Cut(s, ",").
func cutComma[T text](s T) (before, after T, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			return s[:i], s[i+1:], true
		}
	}
	return s, s[len(s):], false
}

// WriteScript serializes a script in the v1 text format. Every float is
// written in hexadecimal significand form, so ParseScript(WriteScript(s))
// reproduces s bit for bit (pinned by test).
func WriteScript(w io.Writer, s *Script) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# soclserved event script v1")
	fmt.Fprintln(bw, FormatMeta(s.Meta))
	var line []byte
	for i := range s.Events {
		var err error
		if line, err = appendEvent(line[:0], &s.Events[i]); err != nil {
			return err
		}
		bw.Write(append(line, '\n')) // a bufio.Writer keeps its first error for Flush
	}
	return bw.Flush()
}

// ParseScript reads the v1 text format. Blank lines and #-comments are
// skipped.
func ParseScript(r io.Reader) (*Script, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	s := &Script{}
	sawMeta := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := fields[string]{line}
		directive := f.next()
		fail := func(err error) (*Script, error) {
			return nil, fmt.Errorf("serve: script line %d: %w", lineNo, err)
		}
		if directive == "meta" {
			if err := parseMeta(strings.Fields(f.rest), &s.Meta); err != nil {
				return fail(err)
			}
			sawMeta = true
			continue
		}
		ev, err := parseEventFields(directive, &f)
		if err != nil {
			return fail(err)
		}
		s.Events = append(s.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading script: %w", err)
	}
	if !sawMeta {
		return nil, fmt.Errorf("serve: script has no meta line")
	}
	return s, nil
}

func parseMeta(kvs []string, m *Meta) error {
	for _, kv := range kvs {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return fmt.Errorf("meta field %q is not key=value", kv)
		}
		k, v := kv[:eq], kv[eq+1:]
		var err error
		switch k {
		case "nodes":
			m.Nodes, err = strconv.Atoi(v)
		case "radius":
			m.Radius, err = parseF(v)
		case "toposeed":
			m.TopoSeed, err = strconv.ParseInt(v, 10, 64)
		case "catseed":
			m.CatSeed, err = strconv.ParseInt(v, 10, 64)
		case "lambda":
			m.Lambda, err = parseF(v)
		case "budget":
			m.Budget, err = parseF(v)
		case "slotmin":
			m.SlotMinutes, err = parseF(v)
		case "slots":
			m.NumSlots, err = strconv.Atoi(v)
		case "routeseed":
			m.RouteSeed, err = strconv.ParseInt(v, 10, 64)
		case "cloudtransfer":
			m.CloudTransfer, err = parseF(v)
		case "cloudcompute":
			m.CloudCompute, err = parseF(v)
		default:
			return fmt.Errorf("unknown meta key %q", k)
		}
		if err != nil {
			return fmt.Errorf("meta %s: %w", k, err)
		}
	}
	return nil
}

func parseFault[T text](f []T) (Event, error) {
	if len(f) < 3 {
		return Event{}, fmt.Errorf("fault wants at least slot, kind, target")
	}
	slot, err := strconv.Atoi(string(f[0]))
	if err != nil {
		return Event{}, err
	}
	kind, ok := faultKindNames[string(f[1])]
	if !ok {
		return Event{}, fmt.Errorf("unknown fault kind %q", string(f[1]))
	}
	ev := Event{Slot: slot, Kind: EvFault, Fault: chaos.Event{Slot: slot, Kind: kind}}
	switch kind {
	case chaos.LinkDegrade, chaos.LinkRestore:
		if len(f) != 5 {
			return Event{}, fmt.Errorf("%s wants a b factor", kind)
		}
		if ev.Fault.A, err = strconv.Atoi(string(f[2])); err != nil {
			return Event{}, err
		}
		if ev.Fault.B, err = strconv.Atoi(string(f[3])); err != nil {
			return Event{}, err
		}
		if ev.Fault.Factor, err = parseF(f[4]); err != nil {
			return Event{}, err
		}
	case chaos.StorageShrink, chaos.StorageRestore:
		if len(f) != 4 {
			return Event{}, fmt.Errorf("%s wants node factor", kind)
		}
		if ev.Fault.Node, err = strconv.Atoi(string(f[2])); err != nil {
			return Event{}, err
		}
		if ev.Fault.Factor, err = parseF(f[3]); err != nil {
			return Event{}, err
		}
	default:
		if len(f) != 3 {
			return Event{}, fmt.Errorf("%s wants node", kind)
		}
		if ev.Fault.Node, err = strconv.Atoi(string(f[2])); err != nil {
			return Event{}, err
		}
	}
	return ev, nil
}
