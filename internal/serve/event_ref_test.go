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
			ev.Req.DataIn, err = refParseF(f[4])
		}
		if err == nil {
			ev.Req.DataOut, err = refParseF(f[5])
		}
		if err == nil {
			ev.Req.Deadline, err = refParseF(f[6])
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
				v, err := refParseF(c)
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

// refParseF is the reference float parser: strconv's, with no fast path.
func refParseF(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

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
		if ev.Fault.Factor, err = refParseF(f[4]); err != nil {
			return Event{}, err
		}
	case chaos.StorageShrink, chaos.StorageRestore:
		if len(f) != 4 {
			return Event{}, fmt.Errorf("%s wants node factor", kind)
		}
		if ev.Fault.Node, err = strconv.Atoi(f[2]); err != nil {
			return Event{}, err
		}
		if ev.Fault.Factor, err = refParseF(f[3]); err != nil {
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

// sameAsReference fails t unless ParseEventLine, on the string and on its
// bytes, and the reference return the same event and agree on whether line is
// an error.
func sameAsReference(t testing.TB, line string) {
	t.Helper()
	want, wantErr := refParseEventLine(line)
	agree := func(got Event, gotErr error) {
		t.Helper()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("line %q: error %v, reference error %v", line, gotErr, wantErr)
		}
		if !sameEvent(got, want) {
			t.Fatalf("line %q:\n  got       %#v\n  reference %#v", line, got, want)
		}
	}
	agree(ParseEventLine(line))
	agree(ParseEventLine([]byte(line)))
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
		"depart + -", "depart +5 -0", "move 123456789 1234567890 -12345678", "depart 1_0 0x1",
		"move ٣ 0 0", "depart 99999999999999999999999999999999999 0",
	} {
		sameAsReference(t, line)
	}
}

// refFormatEvent is the reference event formatter: per-field strings joined
// by fmt.Sprintf and strings.Join, the spelling FormatEvent must reproduce
// byte for byte.
func refFormatEvent(e *Event) (string, error) {
	switch e.Kind {
	case EvArrive:
		chain := make([]string, len(e.Req.Chain))
		for t, svc := range e.Req.Chain {
			chain[t] = strconv.Itoa(svc)
		}
		edge := "-"
		if len(e.Req.EdgeData) > 0 {
			parts := make([]string, len(e.Req.EdgeData))
			for t, v := range e.Req.EdgeData {
				parts[t] = refFmtF(v)
			}
			edge = strings.Join(parts, ",")
		}
		return fmt.Sprintf("arrive %d %d %d %s %s %s %s %s",
			e.Slot, e.ID, e.Req.Home, refFmtF(e.Req.DataIn), refFmtF(e.Req.DataOut),
			refFmtF(e.Req.Deadline), strings.Join(chain, ","), edge), nil
	case EvDepart:
		return fmt.Sprintf("depart %d %d", e.Slot, e.ID), nil
	case EvMove:
		return fmt.Sprintf("move %d %d %d", e.Slot, e.ID, e.Node), nil
	case EvFault:
		f := e.Fault
		switch f.Kind {
		case chaos.LinkDegrade, chaos.LinkRestore:
			return fmt.Sprintf("fault %d %s %d %d %s", e.Slot, f.Kind, f.A, f.B, refFmtF(f.Factor)), nil
		case chaos.StorageShrink, chaos.StorageRestore:
			return fmt.Sprintf("fault %d %s %d %s", e.Slot, f.Kind, f.Node, refFmtF(f.Factor)), nil
		case chaos.NodeCrash, chaos.NodeRecover:
			return fmt.Sprintf("fault %d %s %d", e.Slot, f.Kind, f.Node), nil
		default:
			return "", fmt.Errorf("serve: cannot serialize fault kind %v", f.Kind)
		}
	default:
		return "", fmt.Errorf("serve: cannot serialize event kind %v", e.Kind)
	}
}

// refFmtF is the reference float spelling: the specials by name, every
// finite value in FormatFloat's hex form.
func refFmtF(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// TestFormatEventMatchesReference: FormatEvent spells every random event, an
// empty chain and the unserializable kinds exactly as the reference does.
func TestFormatEventMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	evs := []Event{
		{Kind: EvArrive, Slot: -3, ID: 7, Req: msvc.Request{ID: 7, DataIn: -0.0, DataOut: math.MaxFloat64}},
		{Kind: EvArrive, Req: msvc.Request{Chain: []int{4}, EdgeData: []float64{}}},
		{Kind: EvFault, Fault: chaos.Event{Kind: chaos.FaultKind(99)}},
		{Kind: EventKind(9)},
	}
	for i := 0; i < 5000; i++ {
		evs = append(evs, randomEvent(rng))
	}
	for i := range evs {
		got, gotErr := FormatEvent(&evs[i])
		want, wantErr := refFormatEvent(&evs[i])
		if got != want || (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("event %+v:\n  got       %q (%v)\n  reference %q (%v)", evs[i], got, gotErr, want, wantErr)
		}
	}
}

// floatSpellings are hand-written spellings around parseF's fast path: out of
// the normal range, a fourteenth digit, upper case, an underscore, no leading
// one, a plus sign, a long exponent, no exponent digits, no fraction digits.
var floatSpellings = []string{
	"0x1p+1024", "0x1p-1023", "0x1.fffffffffffff8p+00", "0X1P+00", "0x1_0p+00",
	"0x.8p+01", "+0x1p+00", "0x1p+0003", "0x1p", "0x1.p+00", "",
}

// TestParseFloatMatchesStrconv: parseF, on a string and on bytes, returns
// strconv.ParseFloat's bits and error verdict for fmtF of random bit
// patterns, normals, subnormals, zeros, the extremes and the powers of two,
// for every prefix of some of them, and for floatSpellings. fmtF of a normal
// float must take the fast path.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vals := []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 1, -1}
	for e := -1074; e <= 1023; e++ {
		vals = append(vals, math.Ldexp(1, e), -math.Ldexp(1, e))
	}
	for i := 0; i < 20000; i++ {
		vals = append(vals,
			math.Float64frombits(rng.Uint64()),
			math.Ldexp(rng.NormFloat64(), rng.Intn(200)-100),
			math.Float64frombits(rng.Uint64()&(1<<52-1|1<<63)))
	}
	check := func(s string) {
		t.Helper()
		want, wantErr := strconv.ParseFloat(s, 64)
		agree := func(v float64, err error) {
			t.Helper()
			if math.Float64bits(v) != math.Float64bits(want) || (err != nil) != (wantErr != nil) {
				t.Fatalf("%q: parseF = %v (%x), %v; strconv = %v (%x), %v", s,
					v, math.Float64bits(v), err, want, math.Float64bits(want), wantErr)
			}
		}
		agree(parseF(s))
		agree(parseF([]byte(s)))
	}
	fast := 0
	for i, v := range vals {
		s := fmtF(v)
		check(s)
		if _, ok := parseHexNormal(s); ok {
			fast++
		} else if abs := math.Abs(v); abs >= 0x1p-1022 && abs <= math.MaxFloat64 {
			t.Fatalf("%q: a normal float missed the fast path", s)
		}
		if i%50 == 0 {
			for k := range s {
				check(s[:k])
			}
		}
	}
	if fast < len(vals)/2 {
		t.Fatalf("only %d of %d spellings took the fast path", fast, len(vals))
	}
	for _, s := range floatSpellings {
		check(s)
	}
}
