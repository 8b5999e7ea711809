package experiments

import (
	"repro/internal/core"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ExtColdstart sweeps the serving daemon's serverless lifecycle across the
// scale-to-zero aggressiveness grid: ColdStartDelay (the per-step cold
// penalty, in the same units as chain latency) × IdleEpochs (how many idle
// epochs an instance survives before reclamation). Two demand troughs of
// different lengths are carved into the recorded stream (arrivals dropped,
// matching departures too): under the simulator's steady per-slot demand no
// instance ever goes idle, so the troughs are what make scale-to-zero
// reachable — and their differing lengths are what separate the IdleEpochs
// axis. An aggressive reaper (IdleEpochs 1) scales to zero in both the short
// lull and the long one and pays ColdStartDelay on every returning step; a
// conservative reaper (IdleEpochs 4) rides out the short lull warm and only
// reclaims during the long trough. The lifecycle rows run with WarmPool 0
// and WarmWindow 1 so the sizer tracks demand within one epoch and nothing
// artificially floors the instance count; the first row disables the
// lifecycle (IdleEpochs = 0) as the always-warm baseline.
//
// Columns: cold_steps counts chain steps that paid the cold penalty, scale0
// counts instances reclaimed to zero, mean_delay and p95_delay summarize the
// finite per-request latencies (cold penalties included), react_s totals
// planning + reaction time. With WarmPool 0 a fully reclaimed service leaves
// its first returning request unroutable until the repair policy
// re-provisions it — the unserved column is the availability price of
// scale-to-zero, and it falls as IdleEpochs grows. Rows follow the
// ext_faults err-column contract: a failed configuration reports its message
// in err with zeroed counts rather than dropping the row.
func ExtColdstart(opts Options) *Table {
	nodes, users, duration := 12, 15, 120.0
	if opts.Short {
		nodes, users, duration = 8, 8, 30
	}
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), opts.Seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), opts.Seed)
	cfg := sim.DefaultConfig(g, cat, users, opts.Seed)
	cfg.DurationMinutes = duration

	type cell struct {
		idle  int
		delay float64
	}
	grid := []cell{
		{0, 0}, // lifecycle disabled: always-warm baseline
		{1, 0.1}, {1, 0.25}, {1, 1.0},
		{2, 0.1}, {2, 0.25}, {2, 1.0},
		{4, 0.1}, {4, 0.25}, {4, 1.0},
	}
	if opts.Short {
		// The short run's carved lulls are single epochs, so the lifecycle
		// cell uses IdleEpochs 1 — the only threshold a one-epoch lull trips.
		grid = []cell{{0, 0}, {1, 0.25}}
	}

	t := &Table{
		ID:    "ext_coldstart",
		Title: "Serverless lifecycle: request delay vs cold-start penalty and idle reclamation",
		Header: []string{"idle_epochs", "cold_delay", "epochs", "requests", "unserved",
			"cold_steps", "scale0", "mean_delay", "p95_delay", "obj_sum", "react_s", "err"},
	}

	script, err := sim.EventStream(cfg)
	if err != nil {
		t.AddRow("0", "0.00", "0", "0", "0", "0", "0", "0.000", "0.000", "0.0", "0.000", err.Error())
		return t
	}
	// A short lull only aggressive reapers act on, then a long trough that
	// drains everyone. For the full 24-epoch run: quiet [6,8) and [12,18).
	numSlots := int(cfg.DurationMinutes / cfg.SlotMinutes)
	carveTrough(script, numSlots/4, numSlots/3)
	carveTrough(script, numSlots/2, 3*numSlots/4)

	for _, c := range grid {
		sc := sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
		sc.Replan = false
		sc.Policy = nil // AutoPolicy: repair first, escalate past the threshold
		if c.idle > 0 {
			sc.Lifecycle = serve.LifecycleConfig{
				IdleEpochs:     c.idle,
				WarmPool:       0, // true scale-to-zero: no per-service floor
				WarmWindow:     1, // sizer tracks demand within one epoch
				ColdStartDelay: c.delay,
			}
		}
		idleCol, delayCol := itoa(c.idle), f2(c.delay)

		d, err := serve.NewDaemon(sc)
		if err != nil {
			t.AddRow(idleCol, delayCol, "0", "0", "0", "0", "0", "0.000", "0.000", "0.0", "0.000", err.Error())
			continue
		}
		rr, err := d.RunScript(script)
		errCol := ""
		if err != nil {
			errCol = err.Error()
		}
		if rr == nil {
			t.AddRow(idleCol, delayCol, "0", "0", "0", "0", "0", "0.000", "0.000", "0.0", "0.000", errCol)
			continue
		}
		reqs, unserved, cold, scale0 := 0, 0, 0, 0
		objSum, reactS := 0.0, 0.0
		for _, r := range rr.Records {
			reqs += r.Requests
			unserved += r.Missing + r.Unroutable
			cold += r.ColdSteps
			scale0 += r.ScaledToZero
			objSum += r.ServedObjective
			reactS += (r.PlanTime + r.ReactTime).Seconds()
		}
		t.AddRow(idleCol, delayCol, itoa(len(rr.Records)), itoa(reqs), itoa(unserved),
			itoa(cold), itoa(scale0), f3(rr.MeanDelay()), f3(rr.DelayPercentile(95)), f1(objSum), f3(reactS), errCol)
	}
	return t
}

// carveTrough removes every arrival in slots [from, to) from the recorded
// stream, along with the matching departures — a quiet window in which the
// daemon's demand drains, idle counters age, and the warm-pool sizer's
// history empties.
func carveTrough(s *serve.Script, from, to int) {
	dropped := make(map[int]bool)
	kept := s.Events[:0]
	for _, ev := range s.Events {
		switch {
		case ev.Kind == serve.EvArrive && ev.Slot >= from && ev.Slot < to:
			dropped[ev.ID] = true
			continue
		case ev.Kind == serve.EvDepart && dropped[ev.ID]:
			continue
		}
		kept = append(kept, ev)
	}
	s.Events = kept
}
