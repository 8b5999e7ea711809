package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ExtServe compares the batch simulator with the serving daemon on the same
// recorded event stream (internal/serve), across the daemon's operating
// modes:
//
//	sim-batch     — sim.Run: the replay-mode daemon fed slot by slot;
//	daemon-replay — the same daemon fed the whole recorded script up
//	                front; the check column reports the bitwise comparison
//	                against sim-batch;
//	daemon-serve  — serve mode: one initial solve, then incremental repair
//	                per changed epoch (AutoPolicy), steady epochs on the
//	                delta evaluator;
//	daemon-slsv   — serve mode plus the serverless lifecycle: idle
//	                instances scale to zero, a warm pool holds the floor,
//	                and cold starts price into completion time.
//
// Columns: resolves counts full re-solves, incr counts delta-evaluator
// epochs, cold_steps counts chain steps that paid the cold-start penalty,
// scale0 counts instances reclaimed to zero, react_s totals reaction time
// (planning + repair + re-solve). err follows the ext_faults partial-result
// contract: empty on a clean run, otherwise the failure message, with the
// row reporting whatever slots or epochs completed — one mode failing never
// aborts the remaining modes.
func ExtServe(opts Options) *Table {
	nodes, users, duration := 12, 15, 120.0
	if opts.Short {
		nodes, users, duration = 8, 8, 30
	}
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), opts.Seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), opts.Seed)
	cfg := sim.DefaultConfig(g, cat, users, opts.Seed)
	cfg.DurationMinutes = duration
	numSlots := int(duration / cfg.SlotMinutes)
	scfg := chaos.DefaultScheduleConfig()
	scfg.NodeFailProb = 0.15
	scfg.MinNodesUp = nodes / 2
	cfg.Faults = chaos.Generate(g, numSlots, scfg, opts.Seed)
	cfg.Policy = sim.PolicyRepair

	t := &Table{
		ID:    "ext_serve",
		Title: "Serving daemon vs batch simulator on one recorded event stream",
		Header: []string{"mode", "epochs", "requests", "unserved", "degraded",
			"resolves", "adds", "evicts", "incr", "cold_steps", "scale0",
			"obj_sum", "react_s", "check", "err"},
	}

	// row reports one mode's run; a nil rr is a configuration-level failure
	// (no epoch ever ran).
	row := func(mode string, rr *serve.RunResult, check string, err error) {
		errCol := ""
		if err != nil {
			errCol = err.Error() // partial result: the epochs below still count
		}
		if rr == nil {
			t.AddRow(mode, "0", "0", "0", "0", "0", "0", "0", "0", "0", "0",
				"0.0", "0.000", "", errCol)
			return
		}
		resolves, adds, evicts, incr, cold, scale0, reactS := 0, 0, 0, 0, 0, 0, 0.0
		for _, r := range rr.Records {
			if r.Resolved {
				resolves++
			}
			adds += r.Adds
			evicts += r.Evicts
			if r.Incremental {
				incr++
			}
			cold += r.ColdSteps
			scale0 += r.ScaledToZero
			reactS += (r.PlanTime + r.ReactTime).Seconds()
		}
		t.AddRow(mode, itoa(len(rr.Records)), itoa(rr.TotalRequests()), itoa(rr.TotalUnserved()),
			itoa(rr.TotalDegraded()), itoa(resolves), itoa(adds), itoa(evicts), itoa(incr),
			itoa(cold), itoa(scale0), f1(rr.TotalServedObjective()), f3(reactS), check, errCol)
	}

	var batch *serve.RunResult
	res, batchErr := sim.Run(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
	if res != nil {
		batch = &res.RunResult
	}
	row("sim-batch", batch, "", batchErr)

	script, scriptErr := sim.EventStream(cfg)

	daemonRow := func(mode string, sc serve.Config, verify bool) {
		if script == nil {
			row(mode, nil, "", scriptErr)
			return
		}
		d, err := serve.NewDaemon(sc)
		if err != nil {
			row(mode, nil, "", err)
			return
		}
		rr, err := d.RunScript(script)
		check := ""
		if err == nil && verify {
			if batch == nil {
				check = "skipped: no batch reference"
			} else if cmpErr := batch.Diff(rr); cmpErr != nil {
				check = fmt.Sprintf("MISMATCH: %v", cmpErr)
			} else {
				check = "bitwise=ok"
			}
		}
		row(mode, rr, check, err)
	}

	daemonRow("daemon-replay", sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig())), true)

	sc := sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
	sc.Replan = false
	sc.Policy = nil // default AutoPolicy: repair first, escalate past the threshold
	daemonRow("daemon-serve", sc, false)

	sc = sim.ReplayConfig(cfg, sim.NewSoCLOnline(core.DefaultConfig()))
	sc.Replan = false
	sc.Policy = nil
	sc.Lifecycle = serve.LifecycleConfig{IdleEpochs: 2, WarmPool: 1, ColdStartDelay: 0.25}
	daemonRow("daemon-slsv", sc, false)

	return t
}
