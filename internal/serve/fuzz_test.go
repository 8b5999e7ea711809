package serve

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseScript is the decoder-hardening fuzz target: arbitrary bytes must
// either parse into a script or return an error — never panic — and any
// script that does parse must round-trip exactly (WriteScript then
// ParseScript yields a script whose serialization is byte-identical, the same
// contract the hand-written round-trip tests pin on recorded streams).
//
// Run the full search with
//
//	go test -run '^$' -fuzz FuzzParseScript -fuzztime 20s ./internal/serve
func FuzzParseScript(f *testing.F) {
	f.Add([]byte("# soclserved event script v1\nmeta nodes=4 radius=0x1.999999999999ap-02 toposeed=1 catseed=1 lambda=0x1p-01 budget=0x1.9p+06 slotmin=0x1.4p+02 slots=3 routeseed=7 cloudtransfer=0x0p+00 cloudcompute=0x0p+00\narrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1,2 0x1p-05,0x1p-05\ndepart 1 0\nmove 1 1 3\nfault 1 node-crash 2\nfault 2 link-degrade 0 1 0x1p-02\nfault 2 storage-shrink 3 0x1p-01\n"))
	f.Add([]byte("meta nodes=1\narrive 0 0 0 1 2 3 0 -\n"))
	f.Add([]byte("meta\n"))
	f.Add([]byte("arrive 0 0 0 NaN +Inf -Inf 1 -\n"))
	f.Add([]byte("fault 0 node-recover 0\nmeta nodes=2 radius=1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScript(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatalf("ParseScript returned both a script and an error: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if werr := WriteScript(&first, s); werr != nil {
			t.Fatalf("WriteScript rejected a parsed script: %v", werr)
		}
		s2, err := ParseScript(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse of serialized script failed: %v\nserialized:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if werr := WriteScript(&second, s2); werr != nil {
			t.Fatalf("re-serialize failed: %v", werr)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("script round trip not byte-identical:\n--- first\n%s\n--- second\n%s",
				first.String(), second.String())
		}
	})
}

// FuzzParseEventLine hardens the shared per-event decoder the wire codec
// (internal/transport) feeds with network-supplied lines, and holds it to the
// reference parser (event_ref_test.go) on every input.
func FuzzParseEventLine(f *testing.F) {
	f.Add("arrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1,2 0x1p-05,0x1p-05")
	f.Add("depart 3 17")
	f.Add("move 3 17 4")
	f.Add("fault 1 link-degrade 0 1 0x1p-02")
	f.Add("fault 9 storage-restore 3 1")
	f.Add("arrive\t0 0 2 NaN +Inf -Inf 0,,2 -")
	f.Add("")
	for _, s := range floatSpellings {
		f.Add("arrive 0 0 2 " + s + " 0x1p-04 0x1.4p+03 0,1 " + s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		sameAsReference(t, line)
		ev, err := ParseEventLine(line)
		if err != nil {
			return
		}
		out, err := FormatEvent(&ev)
		if err != nil {
			t.Fatalf("FormatEvent rejected a parsed event %+v: %v", ev, err)
		}
		ev2, err := ParseEventLine(out)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", out, err)
		}
		out2, err := FormatEvent(&ev2)
		if err != nil {
			t.Fatalf("re-format failed: %v", err)
		}
		if out != out2 {
			t.Fatalf("event line not stable: %q vs %q", out, out2)
		}
		if strings.TrimSpace(line) != "" && ev.Kind.String() == "" {
			t.Fatalf("parsed event has no kind: %+v", ev)
		}
	})
}
