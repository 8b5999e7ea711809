package sim

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// runDigest folds every non-wall-clock column of every epoch, then the
// latency stream, into one FNV-64a value.
func runDigest(rr *serve.RunResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	i := func(vs ...int) {
		for _, v := range vs {
			u(uint64(int64(v)))
		}
	}
	f := func(vs ...float64) {
		for _, v := range vs {
			u(math.Float64bits(v))
		}
	}
	flag := func(vs ...bool) {
		for _, v := range vs {
			if v {
				u(1)
			} else {
				u(0)
			}
		}
	}
	for _, r := range rr.Records {
		i(r.Epoch, r.Requests, r.Arrived, r.Departed, r.Moved, r.Deferred,
			r.FaultEvents, r.DownNodes, r.Rehomed)
		f(r.AvgDelay, r.MaxDelay, r.Cost, r.Objective, r.ServedObjective)
		i(r.Missing, r.Unroutable, r.CloudServed, r.Degraded,
			r.Adds, r.Evicts, r.RolledBack)
		flag(r.Resolved, r.Incremental)
		i(r.ColdSteps, r.ScaledToZero, r.WarmSpares)
	}
	f(rr.AllDelays.Flatten()...)
	return h.Sum64()
}

// golden is a frozen oracle: digests recorded at the last commit where
// sim.Run was its own slot loop (7005e8f), from that commit's daemon replay
// of EventStream(cfg) — which its CompareReplay held bitwise equal to its
// Run in every shared column. Run is now a driver over the same daemon, so
// these constants, not a second implementation, pin the slot order.
type golden struct {
	run    uint64 // runDigest of the run
	script uint64 // FNV-64a of EventStream(cfg) through serve.WriteScript
}

// checkGolden runs cfg twice — Run's per-slot ingest and a RunScript replay
// of the materialised script — and holds both, and the script text, to want.
// newAlgo builds a fresh algorithm per run (SoCLOnline is stateful).
func checkGolden(t *testing.T, cfg Config, newAlgo func() Algorithm, want golden) {
	t.Helper()
	res, err := Run(cfg, newAlgo())
	if err != nil {
		t.Fatal(err)
	}
	if got := runDigest(&res.RunResult); got != want.run {
		t.Errorf("Run digest %#x, want %#x", got, want.run)
	}
	script, err := EventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serve.WriteScript(&buf, script); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := h.Sum64(); got != want.script {
		t.Errorf("script digest %#x, want %#x", got, want.script)
	}
	d, err := serve.NewDaemon(ReplayConfig(cfg, newAlgo()))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := d.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if got := runDigest(rr); got != want.run {
		t.Errorf("script replay digest %#x, want %#x", got, want.run)
	}
}

func jdr() Algorithm { return JDR{} }

func TestDaemonReplayMatchesRun(t *testing.T) {
	want := map[FaultPolicy]uint64{
		PolicyNone:    0x5e288bc76660ce87,
		PolicyRepair:  0xc02fadacccc385fa,
		PolicyResolve: 0x86ece4a167fa7030,
	}
	for _, pol := range []FaultPolicy{PolicyNone, PolicyRepair, PolicyResolve} {
		t.Run(pol.String(), func(t *testing.T) {
			checkGolden(t, faultConfig(t, 51, pol), jdr, golden{want[pol], 0x5a304f5832f0a0e2})
		})
	}
}

// TestDaemonReplayNoFaults: without a fault schedule the daemon's mask stays
// pristine and every masked view is the base substrate.
func TestDaemonReplayNoFaults(t *testing.T) {
	g, cat := testSetup(8, 52)
	checkGolden(t, shortConfig(g, cat, 10, 52), jdr, golden{0x9cd063e2f8fc8404, 0xc3d27f17cdafc4f0})
}

// TestDaemonReplayOnlineRepair exercises the repairDriver seam end to end:
// the warm-started online solver both plans and repairs.
func TestDaemonReplayOnlineRepair(t *testing.T) {
	online := func() Algorithm { return NewSoCLOnline(core.DefaultConfig()) }
	checkGolden(t, faultConfig(t, 53, PolicyRepair), online, golden{0x73458c69eb2dc8c6, 0x44980b49a2300b94})
}

// TestEventStreamRoundTrip: the script text format must survive a
// write/parse/write cycle byte for byte — soclserved's -record and -script
// pass scripts through files.
func TestEventStreamRoundTrip(t *testing.T) {
	cfg := faultConfig(t, 54, PolicyRepair)
	script, err := EventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serve.WriteScript(&buf, script); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	parsed, err := serve.ParseScript(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := serve.WriteScript(&buf2, parsed); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Fatal("script text changed across a write/parse/write cycle")
	}
	// And the parsed script must drive a bitwise-equal replay.
	res, err := Run(cfg, JDR{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := serve.NewDaemon(ReplayConfig(cfg, JDR{}))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := d.RunScript(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Diff(rr); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonServeDeterministic pins the serve-mode event loop: two daemons
// with identical configs fed the identical script must agree bitwise on every
// record column that is not wall-clock time.
func TestDaemonServeDeterministic(t *testing.T) {
	cfg := faultConfig(t, 55, PolicyRepair)
	script, err := EventStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *serve.RunResult {
		sc := ReplayConfig(cfg, NewSoCLOnline(core.DefaultConfig()))
		sc.Replan = false
		sc.Policy = nil // default AutoPolicy
		sc.Lifecycle = serve.LifecycleConfig{IdleEpochs: 2, WarmPool: 1, ColdStartDelay: 0.5}
		d, err := serve.NewDaemon(sc)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := d.RunScript(script)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	a, b := run(), run()
	if err := a.Diff(b); err != nil {
		t.Fatalf("identical serve runs diverge: %v", err)
	}
}

// TestFaultPolicyString: the table test for the out-of-range bugfix —
// unknown values must not collapse to "none".
func TestFaultPolicyString(t *testing.T) {
	cases := []struct {
		p    FaultPolicy
		want string
	}{
		{PolicyNone, "none"},
		{PolicyRepair, "repair"},
		{PolicyResolve, "resolve"},
		{FaultPolicy(3), "policy(3)"},
		{FaultPolicy(-1), "policy(-1)"},
		{FaultPolicy(42), "policy(42)"},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("FaultPolicy(%d).String() = %q, want %q", int(tc.p), got, tc.want)
		}
	}
}
