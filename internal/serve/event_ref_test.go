package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/msvc"
)

// refParseEventLine is the reference event-line parser: the straightforward
// strings.Fields / strings.Split decoder ParseEventLine must agree with, line
// for line, on the event it returns and on whether the line is an error.
func refParseEventLine(line string) (Event, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return Event{}, fmt.Errorf("serve: empty event line")
	}
	switch f[0] {
	case "arrive":
		if len(f) != 9 {
			return Event{}, fmt.Errorf("arrive wants 8 fields, got %d", len(f)-1)
		}
		ev := Event{Kind: EvArrive}
		var err error
		if ev.Slot, err = strconv.Atoi(f[1]); err == nil {
			ev.ID, err = strconv.Atoi(f[2])
		}
		if err == nil {
			ev.Req.Home, err = strconv.Atoi(f[3])
		}
		if err == nil {
			ev.Req.DataIn, err = parseF(f[4])
		}
		if err == nil {
			ev.Req.DataOut, err = parseF(f[5])
		}
		if err == nil {
			ev.Req.Deadline, err = parseF(f[6])
		}
		if err != nil {
			return Event{}, err
		}
		for _, c := range strings.Split(f[7], ",") {
			svc, err := strconv.Atoi(c)
			if err != nil {
				return Event{}, err
			}
			ev.Req.Chain = append(ev.Req.Chain, svc)
		}
		if f[8] != "-" {
			for _, c := range strings.Split(f[8], ",") {
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
		if (f[0] == "depart" && len(f) != 3) || (f[0] == "move" && len(f) != 4) {
			return Event{}, fmt.Errorf("%s wants %d fields", f[0], map[string]int{"depart": 2, "move": 3}[f[0]])
		}
		ev := Event{Kind: EvDepart}
		if f[0] == "move" {
			ev.Kind = EvMove
		}
		var err error
		if ev.Slot, err = strconv.Atoi(f[1]); err == nil {
			ev.ID, err = strconv.Atoi(f[2])
		}
		if err == nil && ev.Kind == EvMove {
			ev.Node, err = strconv.Atoi(f[3])
		}
		if err != nil {
			return Event{}, err
		}
		return ev, nil
	case "fault":
		return refParseFault(f[1:])
	default:
		return Event{}, fmt.Errorf("unknown directive %q", f[0])
	}
}

func refParseFault(f []string) (Event, error) {
	if len(f) < 3 {
		return Event{}, fmt.Errorf("fault wants at least slot, kind, target")
	}
	slot, err := strconv.Atoi(f[0])
	if err != nil {
		return Event{}, err
	}
	kind, ok := faultKindNames[f[1]]
	if !ok {
		return Event{}, fmt.Errorf("unknown fault kind %q", f[1])
	}
	ev := Event{Slot: slot, Kind: EvFault, Fault: chaos.Event{Slot: slot, Kind: kind}}
	switch kind {
	case chaos.LinkDegrade, chaos.LinkRestore:
		if len(f) != 5 {
			return Event{}, fmt.Errorf("%s wants a b factor", kind)
		}
		if ev.Fault.A, err = strconv.Atoi(f[2]); err != nil {
			return Event{}, err
		}
		if ev.Fault.B, err = strconv.Atoi(f[3]); err != nil {
			return Event{}, err
		}
		if ev.Fault.Factor, err = parseF(f[4]); err != nil {
			return Event{}, err
		}
	case chaos.StorageShrink, chaos.StorageRestore:
		if len(f) != 4 {
			return Event{}, fmt.Errorf("%s wants node factor", kind)
		}
		if ev.Fault.Node, err = strconv.Atoi(f[2]); err != nil {
			return Event{}, err
		}
		if ev.Fault.Factor, err = parseF(f[3]); err != nil {
			return Event{}, err
		}
	default:
		if len(f) != 3 {
			return Event{}, fmt.Errorf("%s wants node", kind)
		}
		if ev.Fault.Node, err = strconv.Atoi(f[2]); err != nil {
			return Event{}, err
		}
	}
	return ev, nil
}

// sameAsReference fails t unless ParseEventLine and the reference return the
// same event and agree on whether line is an error.
func sameAsReference(t testing.TB, line string) {
	t.Helper()
	got, gotErr := ParseEventLine(line)
	want, wantErr := refParseEventLine(line)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("line %q: error %v, reference error %v", line, gotErr, wantErr)
	}
	if !sameEvent(got, want) {
		t.Fatalf("line %q:\n  got       %#v\n  reference %#v", line, got, want)
	}
}

// sameEvent is reflect.DeepEqual (so nil vs empty EdgeData counts) with the
// floats compared bit for bit, which also makes NaN equal to itself.
func sameEvent(a, b Event) bool {
	bitsA, bitsB := floatBits(&a), floatBits(&b)
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(bitsA, bitsB)
}

// floatBits returns the bits of ev's floats and zeroes them in ev.
func floatBits(ev *Event) []uint64 {
	var out []uint64
	take := func(x *float64) {
		out = append(out, math.Float64bits(*x))
		*x = 0
	}
	take(&ev.Req.DataIn)
	take(&ev.Req.DataOut)
	take(&ev.Req.Deadline)
	take(&ev.Fault.Factor)
	if ev.Req.EdgeData != nil {
		ev.Req.EdgeData = append([]float64{}, ev.Req.EdgeData...)
	}
	for i := range ev.Req.EdgeData {
		take(&ev.Req.EdgeData[i])
	}
	return out
}

// randomEvent draws an arrive, depart, move or fault event over every fault
// kind, with chains of one to five services and the float specials.
func randomEvent(rng *rand.Rand) Event {
	floats := []float64{0, 1, -2.5, 1e-300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), math.Pi}
	f := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * 100
	}
	ev := Event{Slot: rng.Intn(1000) - 5, ID: rng.Intn(1 << 20)}
	switch rng.Intn(4) {
	case 0:
		ev.Kind = EvArrive
		chain := make([]int, 1+rng.Intn(5))
		for i := range chain {
			chain[i] = rng.Intn(40)
		}
		var edge []float64
		if len(chain) > 1 {
			edge = make([]float64, len(chain)-1)
			for i := range edge {
				edge[i] = f()
			}
		}
		ev.Req = msvc.Request{ID: ev.ID, Home: rng.Intn(60), Chain: chain, EdgeData: edge,
			DataIn: f(), DataOut: f(), Deadline: f()}
	case 1:
		ev.Kind = EvDepart
	case 2:
		ev.Kind, ev.Node = EvMove, rng.Intn(60)
	default:
		ev.Kind, ev.ID = EvFault, 0
		kinds := []chaos.FaultKind{chaos.NodeCrash, chaos.NodeRecover, chaos.LinkDegrade,
			chaos.LinkRestore, chaos.StorageShrink, chaos.StorageRestore}
		ev.Fault = chaos.Event{Slot: ev.Slot, Kind: kinds[rng.Intn(len(kinds))],
			Node: rng.Intn(60), A: rng.Intn(60), B: rng.Intn(60), Factor: f()}
		switch ev.Fault.Kind {
		case chaos.NodeCrash, chaos.NodeRecover:
			ev.Fault.A, ev.Fault.B, ev.Fault.Factor = 0, 0, 0
		case chaos.LinkDegrade, chaos.LinkRestore:
			ev.Fault.Node = 0
		default:
			ev.Fault.A, ev.Fault.B = 0, 0
		}
	}
	return ev
}

// mutateLine rewrites a well-formed line into a near miss: other separators
// (tabs, runs of spaces, U+0085, U+00A0, U+2003), empty or trailing comma
// pieces, a field dropped or added, "-" edge data, overflowing integers,
// invalid UTF-8.
func mutateLine(rng *rand.Rand, line string) string {
	f := strings.Split(line, " ")
	seps := []string{" ", "  ", "\t", " \t ", "\u0085", "\u00a0", "\u2003", "\v", "\r", "\x00"}
	pick := func() int { return rng.Intn(len(f)) }
	for m := 1 + rng.Intn(3); m > 0; m-- {
		switch rng.Intn(12) {
		case 0: // separators between every field
			return strings.Join(f, seps[rng.Intn(len(seps))])
		case 1: // leading and trailing space
			return seps[rng.Intn(len(seps))] + strings.Join(f, " ") + seps[rng.Intn(len(seps))]
		case 2: // an empty comma piece
			i := pick()
			f[i] = strings.Replace(f[i], ",", ",,", 1)
		case 3: // a trailing comma
			i := pick()
			f[i] += ","
		case 4: // a leading comma
			i := pick()
			f[i] = "," + f[i]
		case 5: // a field too few
			if len(f) > 1 {
				i := 1 + rng.Intn(len(f)-1)
				f = append(f[:i], f[i+1:]...)
			}
		case 6: // a field too many
			i := pick()
			f = append(f[:i+1], f[i:]...)
		case 7: // "-" for a field
			f[pick()] = "-"
		case 8: // an integer that overflows
			f[pick()] = "92233720368547758080"
		case 9: // a separator inside a field
			i := pick()
			if len(f[i]) > 1 {
				k := 1 + rng.Intn(len(f[i])-1)
				f[i] = f[i][:k] + seps[rng.Intn(len(seps))] + f[i][k:]
			}
		case 10: // an invalid UTF-8 byte
			i := pick()
			f[i] += "\xc2"
		default: // swap the directive
			f[0] = []string{"arrive", "depart", "move", "fault", "meta", "Arrive"}[rng.Intn(6)]
		}
	}
	return strings.Join(f, " ")
}

// BenchmarkParseEventLine parses one event line per op, cycling through an
// arrive/move/depart stream over a generated 12-node, 60-request workload.
func BenchmarkParseEventLine(b *testing.B) {
	_, _, reqs := testScenario(b, 12, 60, 1)
	var lines []string
	for i, ev := range arrivals(0, 0, reqs) {
		for _, e := range []Event{ev, {Slot: 1, Kind: EvMove, ID: i, Node: 3}, {Slot: 2, Kind: EvDepart, ID: i}} {
			line, err := FormatEvent(&e)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, line)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEventLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseEventLineMatchesReference: on FormatEvent lines over random
// events, and on mutations of them, the one-pass parser returns what the
// reference returns.
func TestParseEventLineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var parsed, rejected int
	for i := 0; i < 5000; i++ {
		ev := randomEvent(rng)
		line, err := FormatEvent(&ev)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, line)
		for j := 0; j < 4; j++ {
			m := mutateLine(rng, line)
			sameAsReference(t, m)
			if _, err := refParseEventLine(m); err == nil {
				parsed++
			} else {
				rejected++
			}
		}
	}
	// The mutations must land on both sides of the language, or the test
	// compares only error verdicts.
	if parsed < 2000 || rejected < 2000 {
		t.Fatalf("mutated lines: %d parse, %d are rejected; want ≥ 2000 of each", parsed, rejected)
	}
	for _, line := range []string{
		"", " ", "\t\n", "\u0085", "\u00a0arrive",
		"arrive 0 0 1 1 1 1 1 -",
		"arrive 0 0 1 1 1 1 1,2 -",
		"arrive 0 0 1 1 1 1 1 ,",
		"arrive 0 0 1 1 1 1 1,2 0x1p0,",
		"arrive 0 0 1 1 1 1 1\u00a02 -",
		"arrive 0 0 1 1 1 1 1,2 0x1p0 extra",
		"arrive 0 0 1 1 1 1 1,2",
		"depart 0", "depart 0 1 2", "move 0 1", "move\t0\t1\t2",
		"fault 0 node-crash", "fault 0 node-crash 1 2", "fault 0 link-degrade 1 2 0x1p0 9",
		"fault 0 storage-shrink 1 0x1p0", "fault 0 gamma-ray 1", "fault x node-crash 1",
		"depart 9223372036854775808 0", "move 0 0 -9223372036854775809",
	} {
		sameAsReference(t, line)
	}
}
