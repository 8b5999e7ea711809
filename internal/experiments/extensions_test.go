package experiments

import "testing"

func TestExtBudgetShort(t *testing.T) {
	tb := ExtBudget(shortOpts())
	if len(tb.Rows) != 2*4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		budget := cellF(t, tb, i, "budget")
		cost := cellF(t, tb, i, "cost")
		met := cell(tb, i, "budget_met")
		if met == "yes" && cost > budget+1e-6 {
			t.Fatalf("row %d: cost %v over budget %v but marked met", i, cost, budget)
		}
	}
}

func TestExtLambdaShortTradeoff(t *testing.T) {
	tb := ExtLambda(shortOpts())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Higher λ weights cost more: the high-λ row's cost must not exceed
	// the low-λ row's cost (SoCL trims harder when cost dominates).
	lowCost := cellF(t, tb, 0, "cost")
	highCost := cellF(t, tb, 1, "cost")
	if highCost > lowCost+1e-6 {
		t.Fatalf("cost did not shrink with λ: %v → %v", lowCost, highCost)
	}
}

func TestExtOmegaShort(t *testing.T) {
	tb := ExtOmega(shortOpts())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Larger ω → no more parallel rounds than smaller ω.
	small := cellF(t, tb, 0, "parallel_rounds")
	big := cellF(t, tb, 1, "parallel_rounds")
	if big > small {
		t.Fatalf("parallel rounds grew with ω: %v → %v", small, big)
	}
}

func TestExtXiShort(t *testing.T) {
	tb := ExtXi(shortOpts())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Higher ξ quantile → at least as many groups per service.
	low := cellF(t, tb, 0, "avg_groups_per_service")
	high := cellF(t, tb, 1, "avg_groups_per_service")
	if high < low-1e-9 {
		t.Fatalf("groups shrank with ξ: %v → %v", low, high)
	}
}

func TestExtOnlineShort(t *testing.T) {
	tb := ExtOnline(shortOpts())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	churnCold := cellF(t, tb, 0, "churn")
	churnWarm := cellF(t, tb, 1, "churn")
	if churnWarm > churnCold {
		t.Fatalf("warm churn %v exceeds cold churn %v", churnWarm, churnCold)
	}
}

func TestExtCloudShort(t *testing.T) {
	tb := ExtCloud(shortOpts())
	if len(tb.Rows) != 4 { // 2 budgets × 2 algorithms
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if cell(tb, i, "missing") != "0" {
			t.Fatalf("row %d: missing instances despite cloud fallback", i)
		}
	}
	// Tight budget rows (budget 3000 < one instance per service) must show
	// cloud offloading for at least one algorithm.
	cloudUsed := false
	for i := range tb.Rows {
		if cell(tb, i, "budget") == "3000.0" && cellF(t, tb, i, "cloud_served") > 0 {
			cloudUsed = true
		}
	}
	if !cloudUsed {
		t.Fatal("no cloud offloading under a hopeless budget")
	}
}

func TestExtClusterShort(t *testing.T) {
	tb := ExtCluster(shortOpts())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	cold := map[string]float64{}
	for i := range tb.Rows {
		if cellF(t, tb, i, "completed") <= 0 {
			t.Fatalf("row %d completed nothing", i)
		}
		cold[cell(tb, i, "algorithm")] = cellF(t, tb, i, "cold_starts")
	}
	if cold["SoCL-online"] > cold["SoCL"] {
		t.Fatalf("online cold starts %v exceed one-shot %v", cold["SoCL-online"], cold["SoCL"])
	}
}

func TestExtDatasetsShort(t *testing.T) {
	tb := ExtDatasets(shortOpts())
	if len(tb.Rows) != 4*4 { // 4 datasets × 4 algorithms
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// SoCL never worse than RP on any dataset.
	objs := map[string]map[string]float64{}
	for i := range tb.Rows {
		d := cell(tb, i, "dataset")
		if objs[d] == nil {
			objs[d] = map[string]float64{}
		}
		objs[d][cell(tb, i, "algorithm")] = cellF(t, tb, i, "objective")
	}
	for d, m := range objs {
		if m["SoCL"] > m["RP"] {
			t.Fatalf("%s: SoCL %v worse than RP %v", d, m["SoCL"], m["RP"])
		}
	}
}

func TestExtFaultsShort(t *testing.T) {
	tb := ExtFaults(shortOpts())
	if len(tb.Rows) != 9 { // (1 rate + corr + flap presets) × 3 policies in short mode
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	labels := map[string]int{}
	for i := range tb.Rows {
		labels[cell(tb, i, "fail_rate")]++
	}
	for _, want := range []string{"corr", "flap"} {
		if labels[want] != 3 {
			t.Fatalf("preset %q rows = %d, want 3 (labels: %v)", want, labels[want], labels)
		}
	}
	viol := map[string]float64{}
	reqs := map[string]float64{}
	for i := range tb.Rows {
		if cell(tb, i, "fail_rate") != "0.150" {
			continue // cross-policy invariants below are per-schedule
		}
		pol := cell(tb, i, "policy")
		viol[pol] = cellF(t, tb, i, "viol_rate")
		reqs[pol] = cellF(t, tb, i, "requests")
	}
	// Identical fault/request streams across policies.
	if reqs["none"] != reqs["repair"] || reqs["none"] != reqs["resolve"] {
		t.Fatalf("request streams diverge across policies: %v", reqs)
	}
	// Repair never serves fewer requests than no repair.
	if viol["repair"] > viol["none"] {
		t.Fatalf("repair violation rate %v exceeds no-repair %v", viol["repair"], viol["none"])
	}
}

func TestExtServeShort(t *testing.T) {
	tb := ExtServe(shortOpts())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	reqs := map[string]float64{}
	for i := range tb.Rows {
		mode := cell(tb, i, "mode")
		reqs[mode] = cellF(t, tb, i, "requests")
		switch mode {
		case "daemon-replay":
			// The replay row carries the bitwise verdict against sim-batch.
			if got := cell(tb, i, "check"); got != "bitwise=ok" {
				t.Fatalf("replay check = %q", got)
			}
		case "sim-batch", "daemon-serve", "daemon-slsv":
			if got := cell(tb, i, "check"); got != "" {
				t.Fatalf("%s check = %q", mode, got)
			}
		default:
			t.Fatalf("unexpected mode %q", mode)
		}
	}
	// Every mode consumes the same recorded request stream.
	for mode, r := range reqs {
		if r != reqs["sim-batch"] {
			t.Fatalf("request streams diverge: %s saw %v, sim-batch %v", mode, r, reqs["sim-batch"])
		}
	}
}

func TestExtScaleShort(t *testing.T) {
	tb := ExtScale(shortOpts())
	if len(tb.Rows) != 4 { // 2 sweep points × (sharded, global)
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if got := cell(tb, i, "err"); got != "" {
			t.Fatalf("row %d err = %q", i, got)
		}
		if got := cellF(t, tb, i, "unserved"); got != 0 {
			t.Fatalf("row %d unserved = %v", i, got)
		}
		switch path := cell(tb, i, "path"); path {
		case "sharded":
			if r := cellF(t, tb, i, "regret_x"); r <= 0 || r > 4 {
				t.Fatalf("row %d regret_x = %v", i, r)
			}
			if s := cellF(t, tb, i, "shards"); s != 4 {
				t.Fatalf("row %d shards = %v", i, s)
			}
		case "global":
			if got := cell(tb, i, "regret_x"); got != "1.000" {
				t.Fatalf("row %d global regret_x = %q", i, got)
			}
		default:
			t.Fatalf("row %d unexpected path %q", i, path)
		}
	}
}

func TestExtScaleShardsOverride(t *testing.T) {
	opts := shortOpts()
	opts.Shards = 2
	tb := ExtScale(opts)
	for i := range tb.Rows {
		if s := cellF(t, tb, i, "shards"); s != 2 {
			t.Fatalf("row %d shards = %v with -shards=2", i, s)
		}
		if got := cell(tb, i, "err"); got != "" {
			t.Fatalf("row %d err = %q", i, got)
		}
	}
}

func TestExtColdstartShort(t *testing.T) {
	tb := ExtColdstart(shortOpts())
	if len(tb.Rows) != 2 { // always-warm baseline + one lifecycle cell
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if got := cell(tb, i, "err"); got != "" {
			t.Fatalf("row %d err = %q", i, got)
		}
		if cellF(t, tb, i, "requests") <= 0 {
			t.Fatalf("row %d served no requests", i)
		}
	}
	// The baseline row never scales to zero and never pays a cold start.
	if cellF(t, tb, 0, "scale0") != 0 || cellF(t, tb, 0, "cold_steps") != 0 {
		t.Fatalf("baseline row reports lifecycle activity: scale0=%v cold=%v",
			cellF(t, tb, 0, "scale0"), cellF(t, tb, 0, "cold_steps"))
	}
	// The lifecycle row must actually exercise scale-to-zero: the carved
	// demand troughs drain the warm sizer, instances are reclaimed, and the
	// returning demand pays cold starts.
	if cellF(t, tb, 1, "scale0") <= 0 || cellF(t, tb, 1, "cold_steps") <= 0 {
		t.Fatalf("lifecycle row shows no scale-to-zero activity: scale0=%v cold=%v",
			cellF(t, tb, 1, "scale0"), cellF(t, tb, 1, "cold_steps"))
	}
	// Both rows replay the same recorded stream.
	if cellF(t, tb, 0, "requests") != cellF(t, tb, 1, "requests") {
		t.Fatal("request streams diverge between rows")
	}
}
