package experiments

import (
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ExtFaults is the availability sweep: the trace simulation under seeded
// substrate faults (internal/chaos), comparing the three responses to damage
// at increasing failure rates — serve the broken placement (none), repair it
// incrementally (repair), or re-solve from scratch every faulty slot
// (resolve). All three see bitwise-identical fault, mobility, and request
// streams (policies consume no RNG), so the columns differ only by policy:
//
//	viol_rate — unserved requests (missing + unroutable) per request;
//	degraded  — edge-served requests slower than the slot's no-fault
//	            reference;
//	rec_slots — mean length of service-loss runs, in slots;
//	rec_p50/p95/p99 — percentiles of the same run-length distribution
//	            (recovery is heavy-tailed under bursty schedules, so the
//	            tails say more than the mean);
//	obj_x     — total served-part objective over the run vs the no-fault
//	            baseline (the raw objective saturates at +Inf the moment
//	            one request goes unserved, so the finite served part is
//	            what stays comparable across policies);
//	repair_s  — total time in repair.Run or the re-solve, the cost the
//	            incremental engine is meant to shrink;
//	err       — empty on a clean run; a mid-run failure leaves its message
//	            here and the row reports the partial slots that completed
//	            (sim.Run returns the partial result alongside the error).
func ExtFaults(opts Options) *Table {
	nodes, users, duration := 12, 15, 120.0
	rates := []float64{0.05, 0.15, 0.3}
	if opts.Short {
		nodes, users, duration = 8, 8, 30
		rates = []float64{0.15}
	}
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), opts.Seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), opts.Seed)
	mk := func() sim.Config {
		cfg := sim.DefaultConfig(g, cat, users, opts.Seed)
		cfg.DurationMinutes = duration
		return cfg
	}
	algo := sim.SoCL{Config: core.DefaultConfig()}

	t := &Table{
		ID:    "ext_faults",
		Title: "Availability under substrate faults: incremental repair vs full re-solve vs none",
		Header: []string{"fail_rate", "policy", "requests", "unserved", "viol_rate",
			"degraded", "rec_slots", "rec_p50", "rec_p95", "rec_p99", "obj_x", "repair_s", "err"},
	}

	baseline, baseErr := sim.Run(mk(), algo)
	baseObj := 0.0
	if baseline != nil {
		baseObj = baseline.TotalServedObjective() // partial on error: still the best reference available
	}
	if baseErr != nil {
		baseReqs := 0
		if baseline != nil {
			baseReqs = baseline.TotalRequests()
		}
		t.AddRow("0.000", "baseline", itoa(baseReqs), "0", "0.000",
			"0", "0.0", "0.0", "0.0", "0.0", "1", "0.000", baseErr.Error())
	}
	numSlots := int(duration / mk().SlotMinutes)

	// The sweep axis: independent failures at increasing rates, then the two
	// structured regimes from chaos — correlated domain crashes ("corr") and
	// fast flapping ("flap") — which stress repair along orthogonal axes
	// (burst width vs churn frequency) that no independent rate reproduces.
	type faultCase struct {
		label string
		cfg   chaos.ScheduleConfig
	}
	var cases []faultCase
	for _, rate := range rates {
		scfg := chaos.DefaultScheduleConfig()
		scfg.NodeFailProb = rate
		scfg.LinkFailProb = rate
		scfg.StorageShrinkProb = rate / 2
		cases = append(cases, faultCase{f3(rate), scfg})
	}
	cases = append(cases,
		faultCase{"corr", chaos.CorrelatedScheduleConfig()},
		faultCase{"flap", chaos.FlappingScheduleConfig()})

	for _, fc := range cases {
		scfg := fc.cfg
		scfg.MinNodesUp = nodes / 2
		sched := chaos.Generate(g, numSlots, scfg, opts.Seed)
		for _, pol := range []sim.FaultPolicy{sim.PolicyNone, sim.PolicyRepair, sim.PolicyResolve} {
			cfg := mk()
			cfg.Faults = sched
			cfg.Policy = pol
			res, err := sim.Run(cfg, algo)
			if res == nil {
				// Configuration-level failure: no slot ever ran.
				t.AddRow(fc.label, pol.String(), "0", "0", "0.000", "0",
					"0.0", "0.0", "0.0", "0.0", "+Inf", "0.000", err.Error())
				continue
			}
			reqs := res.TotalRequests()
			viol := 0.0
			if reqs > 0 {
				viol = float64(res.TotalUnserved()) / float64(reqs)
			}
			repairS := 0.0
			for _, s := range res.Records {
				repairS += s.ReactTime.Seconds()
			}
			objX := math.Inf(1)
			if baseObj > 0 {
				objX = res.TotalServedObjective() / baseObj
			}
			errCol := ""
			if err != nil {
				errCol = err.Error() // the row reports the partial slots above
			}
			t.AddRow(fc.label, pol.String(), itoa(reqs), itoa(res.TotalUnserved()),
				f3(viol), itoa(res.TotalDegraded()), f1(res.MeanRecoverySlots()),
				f1(res.RecoveryPercentile(50)), f1(res.RecoveryPercentile(95)),
				f1(res.RecoveryPercentile(99)),
				fmt.Sprintf("%.3g", objX), f3(repairS), errCol)
		}
	}
	return t
}
