package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/transport"
)

func TestParseListenSpec(t *testing.T) {
	for _, c := range []struct {
		spec, network, addr string
		isHTTP, err         bool
	}{
		{spec: "unix:/run/socl.sock", network: "unix", addr: "/run/socl.sock"},
		{spec: "tcp:127.0.0.1:7070", network: "tcp", addr: "127.0.0.1:7070"},
		{spec: "http:127.0.0.1:8080", network: "tcp", addr: "127.0.0.1:8080", isHTTP: true},
		{spec: "udp:127.0.0.1:7070", err: true},
		{spec: "127.0.0.1", err: true},
	} {
		network, addr, isHTTP, err := parseListenSpec(c.spec)
		if (err != nil) != c.err {
			t.Errorf("%q: err = %v, want error %v", c.spec, err, c.err)
			continue
		}
		if network != c.network || addr != c.addr || isHTTP != c.isHTTP {
			t.Errorf("%q = (%q, %q, %v), want (%q, %q, %v)",
				c.spec, network, addr, isHTTP, c.network, c.addr, c.isHTTP)
		}
	}
}

func TestTransportConfigFromFlags(t *testing.T) {
	tc := transportConfig(options{policy: "auto"})
	if !tc.Ordered || tc.Breaker.Enabled || tc.Ladder.CloudColdStart != 0 {
		t.Fatalf("default flags: ordered=%v breaker=%v ladder=%+v, want an ordered server with no breaker",
			tc.Ordered, tc.Breaker.Enabled, tc.Ladder)
	}

	o := options{policy: "auto", unordered: true, deadline: 1, queue: 64, capacity: 16, breakerOn: true, costBudget: 5}
	tc = transportConfig(o)
	if tc.Ordered {
		t.Error("-unordered left Ordered set")
	}
	if tc.DeadlineSlots != 1 || tc.MaxQueue != 64 || tc.Capacity != 16 {
		t.Errorf("deadline/queue/capacity = %d/%d/%d, want 1/64/16", tc.DeadlineSlots, tc.MaxQueue, tc.Capacity)
	}
	if !tc.Breaker.Enabled || tc.Breaker.CostBudget != 5 {
		t.Errorf("breaker = %+v, want enabled with cost budget 5", tc.Breaker)
	}
	cc := model.DefaultCloudConfig()
	if tc.Ladder.CloudTransfer != cc.TransferCost || tc.Ladder.CloudCompute != cc.Compute || tc.Ladder.CloudColdStart != 0.25 {
		t.Errorf("ladder = %+v, want the default cloud prices (%v, %v) and a cold start of 0.25",
			tc.Ladder, cc.TransferCost, cc.Compute)
	}

	// The session factory builds the daemon -script would: it rejects a
	// script without topology provenance and accepts one with it.
	if _, err := tc.Factory(serve.Meta{}); err == nil {
		t.Error("factory accepted a meta line without nodes and radius")
	}
	if _, err := tc.Factory(serve.Meta{Nodes: 8, Radius: 0.4}); err != nil {
		t.Errorf("factory: %v", err)
	}
}

func TestChaosConfigFromFlags(t *testing.T) {
	if c := chaosConfig(options{seed: 3}); c != nil {
		t.Fatalf("zero chaos flags gave %+v, want nil", c)
	}
	got := chaosConfig(options{seed: 3, drop: 0.15, dup: 0.1})
	want := chaos.LinkConfig{Seed: stats.SplitSeed(3, "transport/chaos"), Drop: 0.15, Dup: 0.1}
	if got == nil || *got != want {
		t.Fatalf("chaos config = %+v, want %+v", got, want)
	}
}

// TestWriteCSVReportsWriteErrors writes to a device that accepts the open
// and fails every write: the error must reach the caller.
func TestWriteCSVReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	rr := &serve.RunResult{Records: make([]serve.EpochRecord, 2)}
	if err := writeCSV("/dev/full", rr); err == nil {
		t.Fatal("writeCSV to /dev/full returned nil")
	}
}

// TestFinishSessionWritesCSV records a script, plays it into an engine built
// from the CLI's transport config, and ends the session the way both the
// socket and the HTTP listener do: -csv gets one row per epoch.
func TestFinishSessionWritesCSV(t *testing.T) {
	dir := t.TempDir()
	o := options{
		record: filepath.Join(dir, "s.events"), csvPath: filepath.Join(dir, "epochs.csv"),
		nodes: 6, radius: 0.4, users: 4, seed: 1, slots: 3, policy: "auto", quiet: true,
	}
	if err := recordScenario(o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.record)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.ParseScript(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	frames, err := transport.BuildSession(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := transport.NewEngine(transportConfig(o))
	for _, fr := range frames {
		eng.HandleFrame(fr)
	}
	if !eng.Finished() {
		t.Fatal("session did not finish")
	}
	if err := finishSession(eng, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if want := 1 + len(eng.Result().Records); len(lines) != want || want < 2 || lines[0] != strings.Join(epochHeader, ",") {
		t.Fatalf("csv has %d lines, want a header and %d rows:\n%s", len(lines), want-1, data)
	}
}
