package sim

import (
	"math"
	"testing"

	"repro/internal/chaos"
)

// faultConfig builds a short faulty run over a crash-heavy schedule.
func faultConfig(t *testing.T, seed int64, policy FaultPolicy) Config {
	t.Helper()
	g, cat := testSetup(10, seed)
	cfg := shortConfig(g, cat, 12, seed)
	cfg.DurationMinutes = 60 // 12 slots
	numSlots := int(cfg.DurationMinutes / cfg.SlotMinutes)
	scfg := chaos.DefaultScheduleConfig()
	scfg.NodeFailProb = 0.15
	scfg.MinNodesUp = 3
	cfg.Faults = chaos.Generate(g, numSlots, scfg, seed)
	cfg.Policy = policy
	return cfg
}

func TestFaultRunDeterministic(t *testing.T) {
	a, err := Run(faultConfig(t, 41, PolicyRepair), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(faultConfig(t, 41, PolicyRepair), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.AllDelays.Flatten(), b.AllDelays.Flatten()
	if len(da) != len(db) {
		t.Fatalf("same seed, different delay counts: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			t.Fatalf("delay %d differs: %v vs %v", i, da[i], db[i])
		}
	}
	for i := range a.Records {
		x, y := a.Records[i], b.Records[i]
		if x.Missing != y.Missing || x.Unroutable != y.Unroutable ||
			x.CloudServed != y.CloudServed || x.Degraded != y.Degraded ||
			x.FaultEvents != y.FaultEvents || x.DownNodes != y.DownNodes ||
			x.Rehomed != y.Rehomed || x.Adds != y.Adds ||
			x.Evicts != y.Evicts ||
			math.Float64bits(x.Objective) != math.Float64bits(y.Objective) {
			t.Fatalf("slot %d records diverge between identical runs:\n%+v\n%+v", i, x, y)
		}
	}
}

// TestFaultTimelineRecorded: the schedule's faults must show up in the slot
// telemetry, and a crash-heavy run must disturb service at some point.
func TestFaultTimelineRecorded(t *testing.T) {
	res, err := Run(faultConfig(t, 42, PolicyNone), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	events, down := 0, 0
	for _, s := range res.Records {
		events += s.FaultEvents
		if s.DownNodes > 0 {
			down++
		}
	}
	if events == 0 {
		t.Fatal("no fault events recorded over a crash-heavy schedule")
	}
	if down == 0 {
		t.Fatal("no slot ever had a down node")
	}
	if res.TotalUnserved() != res.TotalMissing()+res.TotalUnroutable() {
		t.Fatal("aggregate identity broken")
	}
	if res.TotalUnserved() > 0 {
		runs := res.RecoveryRuns()
		if len(runs) == 0 || res.MeanRecoverySlots() <= 0 {
			t.Fatalf("unserved slots but no recovery runs: %v", runs)
		}
	}
}

// TestRepairPolicyNoWorseThanNone: with identical fault, mobility, and
// request streams (policies do not consume RNG), incremental repair can only
// reduce the damage the no-repair baseline reports.
func TestRepairPolicyNoWorseThanNone(t *testing.T) {
	none, err := Run(faultConfig(t, 43, PolicyNone), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(faultConfig(t, 43, PolicyRepair), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	if none.TotalRequests() != rep.TotalRequests() {
		t.Fatalf("policies changed the request stream: %d vs %d", none.TotalRequests(), rep.TotalRequests())
	}
	if rep.TotalUnserved() > none.TotalUnserved() {
		t.Fatalf("repair unserved %d > no-repair %d", rep.TotalUnserved(), none.TotalUnserved())
	}
	adds := 0
	for _, s := range rep.Records {
		adds += s.Adds
	}
	if none.TotalUnserved() > 0 && adds == 0 {
		t.Fatal("service was lost yet repair never re-provisioned anything")
	}
}

// TestResolvePolicyRuns: the full re-solve reference completes and records
// its decision time.
func TestResolvePolicyRuns(t *testing.T) {
	res, err := Run(faultConfig(t, 44, PolicyResolve), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no slots")
	}
}

// TestEmptyScheduleMatchesLegacy: a fault schedule with zero events must
// reproduce the no-fault run bit for bit — the masked view is the base
// substrate whenever the mask is pristine.
func TestEmptyScheduleMatchesLegacy(t *testing.T) {
	g, cat := testSetup(8, 45)
	base := shortConfig(g, cat, 10, 45)
	legacy, err := Run(base, JDR{})
	if err != nil {
		t.Fatal(err)
	}
	faulty := shortConfig(g, cat, 10, 45)
	faulty.Faults = &chaos.Schedule{NumSlots: int(faulty.DurationMinutes / faulty.SlotMinutes)}
	faulty.Policy = PolicyNone
	masked, err := Run(faulty, JDR{})
	if err != nil {
		t.Fatal(err)
	}
	dl, dm := legacy.AllDelays.Flatten(), masked.AllDelays.Flatten()
	if len(dl) != len(dm) {
		t.Fatalf("delay counts diverge: %d vs %d", len(dl), len(dm))
	}
	for i := range dl {
		if math.Float64bits(dl[i]) != math.Float64bits(dm[i]) {
			t.Fatalf("delay %d diverges: %v vs %v", i, dl[i], dm[i])
		}
	}
	for i := range legacy.Records {
		if legacy.Records[i].Degraded != 0 || masked.Records[i].Degraded != 0 ||
			math.Float64bits(legacy.Records[i].Objective) != math.Float64bits(masked.Records[i].Objective) {
			t.Fatalf("slot %d diverges under an empty schedule", i)
		}
	}
}
