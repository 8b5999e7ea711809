package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// resultsDir holds the committed tables. CI's golden master keeps them equal
// to what the drivers regenerate, so a claim checked here is a claim about
// the code.
const resultsDir = "../../results"

// A claim is what one Registry entry's committed tables support: one
// sentence, stated word for word in EXPERIMENTS.md, and a verdict that reads
// the tables and records every way the sentence is false. Claims about
// runtime are ratios with margin; every other claim reads deterministic
// columns.
type claim struct {
	text    string
	verdict func(c *check)
}

// claims holds exactly one claim per Registry ID.
var claims = map[string]claim{
	"fig2": {
		text: "The exact optimizer proves every point optimal, and at every node count the 60-user solve takes at least 5× as long as the 20-user one.",
		verdict: func(c *check) {
			t := c.table("fig2")
			c.expect(every(t.strs("status"), "optimal"), "status %v", t.strs("status"))
			for _, n := range t.distinct("nodes") {
				at := t.where("nodes", n)
				r := at.where("users", "60").val("runtime_s") / at.where("users", "20").val("runtime_s")
				c.expect(r >= 5, "%s nodes: the 60-user solve takes %.1f× the 20-user one", n, r)
			}
		},
	},
	"fig3": {
		text: "Service activity is heterogeneous, with pairwise similarities spanning more than 0.5, and no two chains are more similar than the paper's 0.65.",
		verdict: func(c *check) {
			sims := c.table("fig3a").nums("cosine_similarity")
			span := slices.Max(sims) - slices.Min(sims)
			c.expect(span > 0.5, "service similarities span %.3f", span)
			top := c.table("fig3b").where("metric", "max_similarity").val("value")
			c.expect(top < 0.65, "max chain similarity %.3f", top)
		},
	},
	"fig4": {
		text: "The 10-hour request histogram rises above its mean in at least two separate peaks, the highest at least 1.5× the mean.",
		verdict: func(c *check) {
			t := c.table("fig4")
			bins := t.except("t_minutes", "peak_to_mean").nums("requests")
			mean := stats.Mean(bins)
			peaks, above := 0, false
			for _, v := range bins {
				if v > mean && !above {
					peaks++
				}
				above = v > mean
			}
			c.expect(peaks >= 2, "%d run(s) above the mean", peaks)
			r := t.where("t_minutes", "peak_to_mean").val("requests")
			c.expect(r >= 1.5, "peak_to_mean %.3f", r)
		},
	},
	"fig7": {
		text: "Against a proven optimum at every point, SoCL's objective is within 2 % and its solve at least 10× faster.",
		verdict: func(c *check) {
			for _, name := range []string{"fig7ab", "fig7cd"} {
				t := c.table(name)
				c.expect(every(t.strs("opt_status"), "optimal"), "%s: opt_status %v", name, t.strs("opt_status"))
				gap := slices.Max(t.nums("gap_pct"))
				c.expect(gap <= 2, "%s: gap %.3f %%", name, gap)
				speedup := slices.Min(ratios(t.nums("opt_runtime_s"), t.nums("socl_runtime_s")))
				c.expect(speedup >= 10, "%s: SoCL only %.1f× faster than OPT", name, speedup)
			}
		},
	},
	"fig8": {
		text: "RP has the highest objective at every user count, at least 20 % above the best, and SoCL is within 3 % of the best.",
		verdict: func(c *check) {
			t := c.table("fig8")
			for _, u := range t.distinct("users") {
				at := t.where("users", u)
				obj := at.nums("objective")
				rp, socl, best := at.where("algorithm", "RP").val("objective"), at.where("algorithm", "SoCL").val("objective"), slices.Min(obj)
				c.expect(rp >= slices.Max(obj) && rp >= 1.2*best, "%s users: RP %.1f, best %.1f", u, rp, best)
				c.expect(socl <= 1.03*best, "%s users: SoCL %.1f, best %.1f", u, socl, best)
			}
		},
	},
	"fig9": {
		text: "SoCL has the lowest objective sum and mean delay at both user counts, and RP spends at least 20 % more than SoCL.",
		verdict: func(c *check) {
			t := c.table("fig9")
			for _, u := range t.distinct("users") {
				at := t.where("users", u)
				socl := at.where("algorithm", "SoCL")
				for _, col := range []string{"objective_sum", "mean_delay"} {
					c.expect(socl.val(col) <= slices.Min(at.nums(col)), "%s users: SoCL's %s %.3f is not the lowest", u, col, socl.val(col))
				}
				r := at.where("algorithm", "RP").val("cost_sum") / socl.val("cost_sum")
				c.expect(r >= 1.2, "%s users: RP spends %.2f× SoCL", u, r)
			}
		},
	},
	"fig10": {
		text: "SoCL has the lowest average delay at every timestamp and the lowest mean, p95 and maximum delay overall, and JDR the highest maximum.",
		verdict: func(c *check) {
			t := c.table("fig10")
			for _, ts := range t.distinct("t_minutes") {
				at := t.where("t_minutes", ts)
				socl := at.where("algorithm", "SoCL").val("avg_delay")
				c.expect(socl <= slices.Min(at.nums("avg_delay")), "t=%s: SoCL's average delay %.3f is not the lowest", ts, socl)
			}
			s := c.table("fig10summary")
			for _, col := range []string{"mean_delay", "p95_delay", "max_delay"} {
				socl := s.where("algorithm", "SoCL").val(col)
				c.expect(socl <= slices.Min(s.nums(col)), "SoCL's %s %.3f is not the lowest", col, socl)
			}
			jdr := s.where("algorithm", "JDR").val("max_delay")
			c.expect(jdr >= slices.Max(s.nums("max_delay")), "JDR's max delay %.3f is not the highest", jdr)
		},
	},
	"ext_budget": {
		text: "SoCL wins by shedding services to the cloud, and no budget binds it: at every budget it has the lowest objective and cost but the highest latency, and its row is the same at all five budgets.",
		verdict: func(c *check) {
			t := c.table("ext_budget")
			for _, b := range t.distinct("budget") {
				at := t.where("budget", b)
				socl := at.where("algorithm", "SoCL")
				for _, col := range []string{"objective", "cost"} {
					c.expect(socl.val(col) <= slices.Min(at.nums(col)), "budget %s: SoCL's %s %.1f is not the lowest", b, col, socl.val(col))
				}
				c.expect(socl.val("latency_sum") >= slices.Max(at.nums("latency_sum")), "budget %s: SoCL's latency is not the highest", b)
			}
			socl := t.where("algorithm", "SoCL")
			for _, col := range []string{"objective", "cost", "latency_sum", "budget_met"} {
				c.expect(len(socl.distinct(col)) == 1, "SoCL's %s moves with the budget: %v", col, socl.strs(col))
			}
		},
	},
	"ext_lambda": {
		text: "As λ grows SoCL keeps no more instances at no lower latency, and at λ ≤ 0.01 it keeps more instances than at λ = 0.9.",
		verdict: func(c *check) {
			t := c.table("ext_lambda")
			lambda, inst := t.nums("lambda"), t.nums("instances")
			c.expect(increasing(lambda), "λ column %v is not ascending", lambda)
			c.expect(nonIncreasing(inst), "instances %v rise with λ", inst)
			c.expect(nonDecreasing(t.nums("latency_sum")), "latency %v falls with λ", t.nums("latency_sum"))
			high := t.where("lambda", "0.900").val("instances")
			for i, l := range lambda {
				if l <= 0.01 {
					c.expect(inst[i] > high, "λ %.3f keeps %v instances, λ 0.9 keeps %v", l, inst[i], high)
				}
			}
		},
	},
	"ext_omega": {
		text: "As ω grows `parallel_rounds` does not rise, and the objective spans less than 1 %.",
		verdict: func(c *check) {
			t := c.table("ext_omega")
			c.expect(increasing(t.nums("omega")), "ω column %v is not ascending", t.nums("omega"))
			c.expect(nonIncreasing(t.nums("parallel_rounds")), "parallel_rounds %v rise with ω", t.nums("parallel_rounds"))
			c.expect(spread(t.nums("objective")) < 0.01, "objective spans %.2f %%", 100*spread(t.nums("objective")))
		},
	},
	"ext_xi": {
		text: "As the ξ quantile grows the groups per service do not fall, and the objective spans less than 1 %.",
		verdict: func(c *check) {
			t := c.table("ext_xi")
			c.expect(increasing(t.nums("xi_quantile")), "ξ column %v is not ascending", t.nums("xi_quantile"))
			groups := t.nums("avg_groups_per_service")
			c.expect(nonDecreasing(groups), "groups per service %v fall with ξ", groups)
			c.expect(spread(t.nums("objective")) < 0.01, "objective spans %.2f %%", 100*spread(t.nums("objective")))
		},
	},
	"ext_online": {
		text: "Warm-started online SoCL stays within 0.3 % of one-shot SoCL's objective sum and 2 % of its mean delay, with at least 9× less churn.",
		verdict: func(c *check) {
			t := c.table("ext_online")
			cold, warm := t.where("mode", "one-shot"), t.where("mode", "online-warm")
			obj := math.Abs(warm.val("objective_sum")/cold.val("objective_sum") - 1)
			c.expect(obj <= 0.003, "objective sums differ by %.2f %%", 100*obj)
			delay := math.Abs(warm.val("mean_delay")/cold.val("mean_delay") - 1)
			c.expect(delay <= 0.02, "mean delays differ by %.2f %%", 100*delay)
			c.expect(cold.val("churn") >= 9*warm.val("churn"), "churn %v one-shot vs %v warm", cold.val("churn"), warm.val("churn"))
		},
	},
	"ext_cloud": {
		text: "Below one instance per service (budget 3 000) every algorithm leaves no instance missing by serving requests from the cloud, and SoCL offloads as many requests at budget 8 000.",
		verdict: func(c *check) {
			t := c.table("ext_cloud")
			tight := t.where("budget", "3000.0")
			c.expect(every(tight.strs("missing"), "0"), "missing %v at budget 3000", tight.strs("missing"))
			c.expect(slices.Min(tight.nums("cloud_served")) > 0, "cloud_served %v at budget 3000", tight.strs("cloud_served"))
			socl := t.where("algorithm", "SoCL")
			loose, hard := socl.where("budget", "8000.0").val("cloud_served"), socl.where("budget", "3000.0").val("cloud_served")
			c.expect(loose >= hard, "SoCL offloads %v at 8000, %v at 3000", loose, hard)
		},
	},
	"ext_cluster": {
		text: "SoCL-online has the lowest mean and p95 sojourn and the fewest cold starts at no higher slot cost than any other algorithm, and one-shot SoCL has the most cold starts.",
		verdict: func(c *check) {
			t := c.table("ext_cluster")
			online := t.where("algorithm", "SoCL-online")
			for _, col := range []string{"mean_sojourn", "p95_sojourn", "cold_starts", "mean_slot_cost"} {
				c.expect(online.val(col) <= slices.Min(t.nums(col)), "SoCL-online's %s %v is not the lowest", col, online.val(col))
			}
			oneShot := t.where("algorithm", "SoCL").val("cold_starts")
			c.expect(oneShot >= slices.Max(t.nums("cold_starts")), "one-shot SoCL's %v cold starts are not the most", oneShot)
		},
	},
	"ext_datasets": {
		text: "On all four service graphs RP has the highest objective, and SoCL is within 4 % of the best.",
		verdict: func(c *check) {
			t := c.table("ext_datasets")
			c.expect(len(t.distinct("dataset")) == 4, "datasets %v", t.distinct("dataset"))
			for _, d := range t.distinct("dataset") {
				at := t.where("dataset", d)
				obj := at.nums("objective")
				rp, socl := at.where("algorithm", "RP").val("objective"), at.where("algorithm", "SoCL").val("objective")
				c.expect(rp >= slices.Max(obj), "%s: RP %.1f is not the highest", d, rp)
				c.expect(socl <= 1.04*slices.Min(obj), "%s: SoCL %.1f, best %.1f", d, socl, slices.Min(obj))
			}
		},
	},
	"ext_faults": {
		text: "Under every fault schedule repair has the lowest violation rate of the three policies, under half that of serving the damaged placement.",
		verdict: func(c *check) {
			t := c.table("ext_faults")
			for _, s := range t.distinct("fail_rate") {
				at := t.where("fail_rate", s)
				repair, none := at.where("policy", "repair").val("viol_rate"), at.where("policy", "none").val("viol_rate")
				c.expect(repair <= slices.Min(at.nums("viol_rate")), "%s: repair's violation rate %v is not the lowest", s, repair)
				c.expect(repair < none/2, "%s: repair %v vs none %v", s, repair, none)
			}
		},
	},
	"ext_serve": {
		text: "Replayed through the daemon, the recorded stream reproduces the batch simulator bitwise, and all four modes serve the same requests.",
		verdict: func(c *check) {
			t := c.table("ext_serve")
			replay, batch := t.where("mode", "daemon-replay"), t.where("mode", "sim-batch")
			c.expect(replay.cell("check") == "bitwise=ok", "replay check %q", replay.cell("check"))
			for _, col := range t.t.Header {
				if col == "mode" || col == "check" || strings.HasSuffix(col, "_s") {
					continue
				}
				c.expect(replay.cell(col) == batch.cell(col), "%s: replay %s, batch %s", col, replay.cell(col), batch.cell(col))
			}
			c.expect(len(t.rows) == 4 && len(t.distinct("requests")) == 1, "requests %v", t.strs("requests"))
		},
	},
	"ext_scale": {
		text: "The sharded solve is faster than the global one at every size, its speedup growing to at least 40× at 10⁵ users; it matches or beats the global objective from 10³ users up, and only it reaches 10⁶ users.",
		verdict: func(c *check) {
			t := c.table("ext_scale")
			sharded, global := t.where("path", "sharded"), t.where("path", "global")
			var speedups []float64
			for _, u := range t.distinct("users") {
				s, g := sharded.where("users", u), global.where("users", u)
				if g.cell("err") != "" {
					continue
				}
				speedups = append(speedups, g.val("solve_s")/s.val("solve_s"))
				if s.val("users") >= 1000 {
					c.expect(s.val("regret_x") <= 1, "%s users: sharded regret %v", u, s.val("regret_x"))
				}
			}
			c.expect(slices.Min(speedups) > 1 && nonDecreasing(speedups), "speedups %.1f", speedups)
			r := global.where("users", "100000").val("solve_s") / sharded.where("users", "100000").val("solve_s")
			c.expect(r >= 40, "speedup %.1f× at 10⁵ users", r)
			top := t.where("users", "1000000")
			c.expect(top.where("path", "sharded").cell("err") == "" && top.where("path", "global").cell("err") != "",
				"at 10⁶ users: sharded err %q, global err %q", top.where("path", "sharded").cell("err"), top.where("path", "global").cell("err"))
		},
	},
	"ext_coldstart": {
		text: "A longer idle window scales fewer instances to zero and leaves fewer requests unserved at every cold-start delay, a longer cold-start delay raises the mean delay at every idle window, and the always-warm baseline never cold-starts.",
		verdict: func(c *check) {
			t := c.table("ext_coldstart")
			warm := t.where("idle_epochs", "0")
			c.expect(warm.cell("scale0") == "0" && warm.cell("cold_steps") == "0",
				"baseline scale0 %s, cold_steps %s", warm.cell("scale0"), warm.cell("cold_steps"))
			life := t.except("idle_epochs", "0")
			for _, d := range life.distinct("cold_delay") {
				at := life.where("cold_delay", d)
				c.expect(increasing(at.nums("idle_epochs")), "cold_delay %s: idle_epochs %v not ascending", d, at.strs("idle_epochs"))
				c.expect(decreasing(at.nums("scale0")), "cold_delay %s: scale0 %v", d, at.strs("scale0"))
				c.expect(decreasing(at.nums("unserved")), "cold_delay %s: unserved %v", d, at.strs("unserved"))
			}
			for _, e := range life.distinct("idle_epochs") {
				at := life.where("idle_epochs", e)
				c.expect(increasing(at.nums("cold_delay")), "idle_epochs %s: cold_delay %v not ascending", e, at.strs("cold_delay"))
				c.expect(increasing(at.nums("mean_delay")), "idle_epochs %s: mean_delay %v", e, at.strs("mean_delay"))
			}
		},
	},
	"ext_overload": {
		text: "At the top load the breaker halves the shed rate and leaves fewer requests unserved under wire loss, and on a lossless wire it sheds more but leaves none unserved.",
		verdict: func(c *check) {
			t := c.table("ext_overload")
			loads := t.distinct("users")
			top := t.where("users", loads[len(loads)-1])
			lossy, clean := top.where("drop", "0.25"), top.where("drop", "0.00")
			off, on := lossy.where("breaker", "off"), lossy.where("breaker", "on")
			c.expect(on.val("shed_rate") <= off.val("shed_rate")/2, "lossy: shed_rate on %v, off %v", on.val("shed_rate"), off.val("shed_rate"))
			c.expect(on.val("unserved") < off.val("unserved"), "lossy: unserved on %v, off %v", on.val("unserved"), off.val("unserved"))
			off, on = clean.where("breaker", "off"), clean.where("breaker", "on")
			c.expect(on.val("shed_rate") > off.val("shed_rate"), "lossless: shed_rate on %v, off %v", on.val("shed_rate"), off.val("shed_rate"))
			c.expect(on.cell("unserved") == "0", "lossless: %s unserved with the breaker on", on.cell("unserved"))
		},
	},
}

// TestClaimsHoldOnCommittedResults runs every claim's verdict on the
// committed tables. It also fails on a Registry entry without a claim, a
// claim without a Registry entry, and a committed table no claim reads.
func TestClaimsHoldOnCommittedResults(t *testing.T) {
	read := map[string]bool{}
	ids := map[string]bool{}
	for _, e := range Registry {
		ids[e.ID] = true
		cl, ok := claims[e.ID]
		if !ok {
			t.Errorf("%s: Registry entry has no claim", e.ID)
			continue
		}
		c := &check{read: read}
		c.run(cl.verdict)
		for _, f := range c.fails {
			t.Errorf("%s: claim %q is false: %s", e.ID, cl.text, f)
		}
	}
	for id := range claims {
		if !ids[id] {
			t.Errorf("%s: claim has no Registry entry", id)
		}
	}
	files, err := filepath.Glob(filepath.Join(resultsDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".csv"); !read[name] {
			t.Errorf("results/%s.csv backs no claim", name)
		}
	}
}

// TestExperimentsDocStatesEveryClaim holds EXPERIMENTS.md to the claims
// checked here: each sentence appears in it word for word, line breaks
// aside.
func TestExperimentsDocStatesEveryClaim(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	flat := strings.Join(strings.Fields(string(doc)), " ")
	for id, cl := range claims {
		if !strings.Contains(flat, cl.text) {
			t.Errorf("%s: EXPERIMENTS.md does not state %q", id, cl.text)
		}
	}
}

// check is one verdict's run: the tables it read and the failures it found.
type check struct {
	read  map[string]bool
	fails []string
}

// run calls verdict, recording a panic (a missing table, column or row, an
// unparsable cell) as a failure.
func (c *check) run(verdict func(*check)) {
	defer func() {
		if p := recover(); p != nil {
			c.fails = append(c.fails, fmt.Sprint(p))
		}
	}()
	verdict(c)
}

func (c *check) expect(ok bool, format string, args ...any) {
	if !ok {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

// table loads results/<name>.csv through LoadCSV.
func (c *check) table(name string) rows {
	t, err := LoadCSV(filepath.Join(resultsDir, name+".csv"))
	if err != nil {
		panic(err)
	}
	c.read[name] = true
	r := rows{t: t}
	for i := range t.Rows {
		r.rows = append(r.rows, i)
	}
	return r
}

// rows is a committed table narrowed to some of its rows, in file order.
type rows struct {
	t    *Table
	rows []int
}

func (r rows) col(name string) int {
	i := slices.Index(r.t.Header, name)
	if i < 0 {
		panic(fmt.Sprintf("%s has no column %q", r.t.ID, name))
	}
	return i
}

func (r rows) filter(col, val string, keep bool) rows {
	i, out := r.col(col), rows{t: r.t}
	for _, k := range r.rows {
		if (r.t.Rows[k][i] == val) == keep {
			out.rows = append(out.rows, k)
		}
	}
	return out
}

// where keeps the rows whose col reads val; except drops them.
func (r rows) where(col, val string) rows  { return r.filter(col, val, true) }
func (r rows) except(col, val string) rows { return r.filter(col, val, false) }

func (r rows) strs(col string) []string {
	i, out := r.col(col), make([]string, len(r.rows))
	for j, k := range r.rows {
		out[j] = r.t.Rows[k][i]
	}
	return out
}

func (r rows) nums(col string) []float64 {
	out := make([]float64, len(r.rows))
	for j, s := range r.strs(col) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			panic(fmt.Sprintf("%s: %s = %q is not a number", r.t.ID, col, s))
		}
		out[j] = v
	}
	return out
}

// distinct lists col's values in first-seen order.
func (r rows) distinct(col string) []string {
	var out []string
	for _, s := range r.strs(col) {
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// cell and val read col of the one row r holds.
func (r rows) cell(col string) string {
	if len(r.rows) != 1 {
		panic(fmt.Sprintf("%s: %d rows where one was expected (reading %s)", r.t.ID, len(r.rows), col))
	}
	return r.strs(col)[0]
}

func (r rows) val(col string) float64 {
	r.cell(col)
	return r.nums(col)[0]
}

func every(xs []string, want string) bool {
	return !slices.ContainsFunc(xs, func(s string) bool { return s != want })
}

func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// spread is the range of xs relative to its minimum.
func spread(xs []float64) float64 { return (slices.Max(xs) - slices.Min(xs)) / slices.Min(xs) }

func everyStep(xs []float64, ok func(a, b float64) bool) bool {
	for i := 1; i < len(xs); i++ {
		if !ok(xs[i-1], xs[i]) {
			return false
		}
	}
	return true
}

func increasing(xs []float64) bool {
	return everyStep(xs, func(a, b float64) bool { return b > a })
}
func decreasing(xs []float64) bool {
	return everyStep(xs, func(a, b float64) bool { return b < a })
}
func nonIncreasing(xs []float64) bool {
	return everyStep(xs, func(a, b float64) bool { return b <= a })
}
func nonDecreasing(xs []float64) bool {
	return everyStep(xs, func(a, b float64) bool { return b >= a })
}
