package repair

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

func testInstance(t *testing.T, nodes, users int, seed int64) *model.Instance {
	t.Helper()
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
}

// faultsOf builds a small single-kind fault burst for the differential test.
func faultsOf(t *testing.T, kind chaos.FaultKind, in *model.Instance, p model.Placement) []chaos.Event {
	t.Helper()
	switch kind {
	case chaos.NodeCrash:
		// Crash two nodes that host instances, so repair has real work.
		var evs []chaos.Event
		for k := 0; k < in.V() && len(evs) < 2; k++ {
			for i := range p.X {
				if p.Has(i, k) {
					evs = append(evs, chaos.Event{Kind: chaos.NodeCrash, Node: k})
					break
				}
			}
		}
		if len(evs) == 0 {
			t.Fatal("placement deploys nothing; bad test instance")
		}
		return evs
	case chaos.LinkDegrade:
		links := chaos.NewMask(in.Graph).Links()
		var evs []chaos.Event
		for i := 0; i < len(links) && i < 3; i++ {
			evs = append(evs, chaos.Event{Kind: chaos.LinkDegrade, A: links[i].A, B: links[i].B, Factor: 0.1})
		}
		return evs
	case chaos.StorageShrink:
		// Shrink hard enough that loaded nodes violate Eq. 6 and force
		// eviction.
		var evs []chaos.Event
		for k := 0; k < in.V() && k < 3; k++ {
			evs = append(evs, chaos.Event{Kind: chaos.StorageShrink, Node: k, Factor: 0.2})
		}
		return evs
	default:
		t.Fatalf("unsupported fault kind %v", kind)
		return nil
	}
}

// assertSummary holds a repair's summary against the reference scorer's,
// field by field and bit for bit.
func assertSummary(t *testing.T, label string, got, want model.EvalSummary) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.Cost) != bits(want.Cost) || bits(got.Objective) != bits(want.Objective) ||
		bits(got.LatencySum) != bits(want.LatencySum) || bits(got.ServedLatencySum) != bits(want.ServedLatencySum) ||
		got.Finite != want.Finite || got.MissingInstances != want.MissingInstances ||
		got.Unroutable != want.Unroutable || got.CloudServed != want.CloudServed ||
		got.DeadlineViolated != want.DeadlineViolated {
		t.Fatalf("%s: summary %+v, the reference's %+v", label, got, want)
	}
}

// TestRepairMatchesNaive is the differential guarantee: the delta-scored
// repair and the full-re-solve-routing reference make bitwise-identical
// decisions on identical damage, across seeds and fault kinds.
func TestRepairMatchesNaive(t *testing.T) {
	kinds := []chaos.FaultKind{chaos.NodeCrash, chaos.LinkDegrade, chaos.StorageShrink}
	for _, seed := range []int64{1, 2, 3} {
		in := testInstance(t, 8, 25, seed)
		p := baselines.JDR(in)
		for _, kind := range kinds {
			m := chaos.NewMask(in.Graph)
			for _, ev := range faultsOf(t, kind, in, p) {
				if err := m.Apply(ev); err != nil {
					t.Fatal(err)
				}
			}
			fast := Run(in, m, p, Config{})
			ref := runNaive(in, m, p, Config{})

			if !reflect.DeepEqual(fast.Evicted, ref.Evicted) {
				t.Fatalf("seed %d %v: evictions diverge: %v vs naive %v", seed, kind, fast.Evicted, ref.Evicted)
			}
			if !reflect.DeepEqual(fast.Added, ref.Added) {
				t.Fatalf("seed %d %v: additions diverge: %v vs naive %v", seed, kind, fast.Added, ref.Added)
			}
			if fast.RolledBack != ref.RolledBack {
				t.Fatalf("seed %d %v: roll-back counts diverge: %d vs naive %d", seed, kind, fast.RolledBack, ref.RolledBack)
			}
			if !reflect.DeepEqual(fast.Placement, ref.Placement) {
				t.Fatalf("seed %d %v: repaired placements diverge", seed, kind)
			}
			label := fmt.Sprintf("seed %d %v", seed, kind)
			assertSummary(t, label+" before", fast.Before, ref.Before)
			assertSummary(t, label+" after", fast.After, ref.After)
		}
	}
}

// TestRepairMatchesNaiveGenerated walks generated fault schedules — node
// crashes at 0.15 a slot plus link degradations, never fewer than half the
// nodes up — over a 24-node substrate, with and without the cloud, carrying
// each slot's repaired placement into the next. Every slot's repair must
// match the reference's additions, evictions, roll-back count (which the
// transport's breaker reads as the reaction's cost) and placement, bit for
// bit.
func TestRepairMatchesNaiveGenerated(t *testing.T) {
	const nodes, slots = 24, 24
	for _, seed := range []int64{4, 5} {
		for _, withCloud := range []bool{false, true} {
			in := testInstance(t, nodes, 60, seed)
			if withCloud {
				cc := model.DefaultCloudConfig()
				in.Cloud = &cc
			}
			scfg := chaos.DefaultScheduleConfig()
			scfg.NodeFailProb, scfg.MinNodesUp = 0.15, nodes/2
			sched := chaos.Generate(in.Graph, slots, scfg, seed)
			m := chaos.NewMask(in.Graph)
			p := baselines.JDR(in)
			adds, rolledBack := 0, 0
			for slot := 0; slot < slots; slot++ {
				for _, ev := range sched.At(slot) {
					if err := m.Apply(ev); err != nil {
						t.Fatal(err)
					}
				}
				fast := Run(in, m, p, Config{})
				ref := runNaive(in, m, p, Config{})
				where := fmt.Sprintf("seed %d cloud=%v slot %d", seed, withCloud, slot)
				if !reflect.DeepEqual(fast.Added, ref.Added) || !reflect.DeepEqual(fast.Evicted, ref.Evicted) {
					t.Fatalf("%s: added %v evicted %v, naive added %v evicted %v", where, fast.Added, fast.Evicted, ref.Added, ref.Evicted)
				}
				if fast.RolledBack != ref.RolledBack {
					t.Fatalf("%s: roll-back counts diverge: %d vs naive %d", where, fast.RolledBack, ref.RolledBack)
				}
				if !reflect.DeepEqual(fast.Placement, ref.Placement) {
					t.Fatalf("%s: repaired placements diverge", where)
				}
				p = fast.Placement
				adds += len(fast.Added)
				rolledBack += fast.RolledBack
			}
			if adds == 0 || rolledBack == 0 {
				t.Fatalf("seed %d cloud=%v: the walk added %d and rolled back %d; it tests nothing", seed, withCloud, adds, rolledBack)
			}
			t.Logf("seed %d cloud=%v: %d adds, %d rolled back", seed, withCloud, adds, rolledBack)
		}
	}
}

// TestRepairImprovesOrHolds: without forced evictions, repair only ever
// commits strict objective improvements, so After can never score worse
// than Before.
func TestRepairImprovesOrHolds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in := testInstance(t, 8, 25, seed)
		p := baselines.JDR(in)
		m := chaos.NewMask(in.Graph)
		for _, ev := range faultsOf(t, chaos.NodeCrash, in, p) {
			if err := m.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		res := Run(in, m, p, Config{})
		if len(res.Evicted) != 0 {
			t.Fatalf("seed %d: node crashes forced evictions %v", seed, res.Evicted)
		}
		if res.After.Objective > res.Before.Objective+model.ObjTol {
			t.Fatalf("seed %d: repair hurt the objective: %v -> %v", seed, res.Before.Objective, res.After.Objective)
		}
		if len(res.Damage.Lost) == 0 {
			t.Fatalf("seed %d: crash of a hosting node lost no instances", seed)
		}
	}
}

// TestRepairEnforcesFeasibility: storage shrinks must always end Eq. 5/6
// feasible on the masked substrate, with every eviction accounted.
func TestRepairEnforcesFeasibility(t *testing.T) {
	in := testInstance(t, 8, 25, 2)
	p := baselines.JDR(in)
	m := chaos.NewMask(in.Graph)
	for _, ev := range faultsOf(t, chaos.StorageShrink, in, p) {
		if err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	dmg, _ := Classify(in, m, p)
	res := Run(in, m, p, Config{})
	if !reflect.DeepEqual(res.Damage, dmg) {
		t.Fatalf("Run's damage %+v != Classify's %+v", res.Damage, dmg)
	}
	min := m.Instance(in)
	if k := min.CheckStorage(res.Placement); k >= 0 {
		t.Fatalf("repaired placement still violates storage at node %d", k)
	}
	if !min.CheckBudget(res.Placement) {
		t.Fatalf("repaired placement exceeds budget: cost %v > %v", min.DeployCost(res.Placement), min.Budget)
	}
	if len(dmg.StorageViolated) > 0 && len(res.Evicted) == 0 {
		t.Fatalf("storage violations %v repaired with no evictions", dmg.StorageViolated)
	}
	if res.Epoch != m.Epoch() {
		t.Fatalf("result epoch %d != mask epoch %d", res.Epoch, m.Epoch())
	}
}

// TestRepairCrashRecoverRoundTrip: crash, repair, recover, repair again —
// once the mask is pristine the masked instance is the base instance, and
// evaluating the original placement restores the pre-fault evaluation bit
// for bit.
func TestRepairCrashRecoverRoundTrip(t *testing.T) {
	in := testInstance(t, 8, 25, 3)
	p := baselines.JDR(in)
	base := in.EvaluateRouted(p, model.RouteModeOptimal, 0)

	m := chaos.NewMask(in.Graph)
	crash := faultsOf(t, chaos.NodeCrash, in, p)
	for _, ev := range crash {
		if err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	mid := Run(in, m, p, Config{})
	if len(mid.Damage.Lost) == 0 {
		t.Fatal("crash lost no instances")
	}

	for _, ev := range crash {
		if err := m.Apply(chaos.Event{Kind: chaos.NodeRecover, Node: ev.Node}); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Pristine() {
		t.Fatal("recovering every crashed node did not restore the pristine mask")
	}
	post := Run(in, m, p, Config{})
	if len(post.Damage.Lost) != 0 || len(post.Evicted) != 0 || len(post.Added) != 0 {
		t.Fatalf("repair on a pristine mask was not the identity: %+v", post)
	}
	if math.Float64bits(post.After.Objective) != math.Float64bits(base.Objective) ||
		math.Float64bits(post.After.LatencySum) != math.Float64bits(base.LatencySum) ||
		math.Float64bits(post.After.Cost) != math.Float64bits(base.Cost) {
		t.Fatalf("post-recovery evaluation diverges from the pre-fault baseline: %v vs %v", post.After.Objective, base.Objective)
	}
	after := post.Evaluator.Eval()
	for h := range base.Latencies {
		if math.Float64bits(after.Latencies[h]) != math.Float64bits(base.Latencies[h]) {
			t.Fatalf("request %d latency %v != pre-fault %v", h, after.Latencies[h], base.Latencies[h])
		}
	}
}

// TestRepairCloudFallback: with a cloud configured, requests whose services
// cannot be restored degrade to the cloud instead of counting missing.
func TestRepairCloudFallback(t *testing.T) {
	in := testInstance(t, 8, 25, 1)
	cc := model.DefaultCloudConfig()
	in.Cloud = &cc
	in.Budget = 0 // no re-provision headroom at all
	p := baselines.JDR(in)
	// Zero budget: JDR may deploy nothing, so place one instance by hand to
	// have something to lose.
	if p.Instances() == 0 {
		p.Set(0, 0, true)
	}
	m := chaos.NewMask(in.Graph)
	var crashed []int
	for k := 0; k < in.V(); k++ {
		for i := range p.X {
			if p.Has(i, k) {
				if err := m.Apply(chaos.Event{Kind: chaos.NodeCrash, Node: k}); err != nil {
					t.Fatal(err)
				}
				crashed = append(crashed, k)
				break
			}
		}
	}
	if len(crashed) == 0 {
		t.Fatal("nothing deployed, nothing to crash")
	}
	res := Run(in, m, p, Config{})
	if res.After.MissingInstances != 0 {
		t.Fatalf("cloud fallback left %d requests missing", res.After.MissingInstances)
	}
	if res.After.CloudServed == 0 {
		t.Fatal("losing every instance cloud-served no requests")
	}
	if len(res.Added) != 0 {
		t.Fatalf("zero budget still re-provisioned %v", res.Added)
	}
}

// TestRepairRefinesCloudServedService: a service the placement never
// deployed leaves its requests to the cloud, so nothing is unserved and
// nothing was lost or evicted — yet their chains are damaged, and the
// refinement phase must probe edge instances of that service, and commit one
// that beats the cloud.
func TestRepairRefinesCloudServedService(t *testing.T) {
	in := testInstance(t, 8, 25, 1)
	cc := model.DefaultCloudConfig()
	cc.ColdStart = 1000 // a cloud far slower than any edge instance
	in.Cloud = &cc
	p := baselines.JDR(in)
	const svc = 0
	for k := range p.X[svc] {
		p.Set(svc, k, false)
	}
	res := Run(in, chaos.NewMask(in.Graph), p, Config{})
	if res.Before.Unserved() != 0 || res.Before.CloudServed == 0 {
		t.Fatalf("the fixture is not all served with some in the cloud: %+v", res.Before)
	}
	for _, a := range res.Added {
		if a.Svc == svc {
			return
		}
	}
	t.Fatalf("repair added %v, no instance of the cloud-served service %d", res.Added, svc)
}

// TestDeltaScorerProbesLeaveNoTrace: a probe is a tentative Apply → Eval →
// Revert or a counterfactual ProbeAdd, so afterwards the bound placement and
// the full evaluation must be bitwise what they were before — on the over-budget outcome too, which the
// differential instances (budget 8000, never binding) do not reach.
func TestDeltaScorerProbesLeaveNoTrace(t *testing.T) {
	for _, budget := range []float64{8000, 1} {
		in := testInstance(t, 8, 25, 1)
		p := baselines.JDR(in)
		in.Budget = budget
		cfg := Config{}
		s := &deltaScorer{in: in, d: model.NewDeltaEvaluator(in, p.Clone(), cfg.Mode, cfg.Seed)}

		var absent []chaos.Inst
		present := chaos.Inst{Svc: -1}
		for i := range p.X {
			for k := range p.X[i] {
				if !p.Has(i, k) {
					absent = append(absent, chaos.Inst{Svc: i, Node: k})
				} else if present.Svc < 0 {
					present = chaos.Inst{Svc: i, Node: k}
				}
			}
		}
		if len(absent) < 2 || present.Svc < 0 {
			t.Fatal("placement leaves nothing to probe; bad test instance")
		}

		before := s.d.Eval()
		check := func(probe string) {
			t.Helper()
			after := s.d.Eval()
			if !reflect.DeepEqual(s.d.Placement(), p) {
				t.Fatalf("budget %v: %s left the placement mutated", budget, probe)
			}
			if math.Float64bits(after.Objective) != math.Float64bits(before.Objective) ||
				math.Float64bits(after.Cost) != math.Float64bits(before.Cost) ||
				after.OverBudget != before.OverBudget {
				t.Fatalf("budget %v: %s left the evaluation changed: %+v -> %+v", budget, probe, before, after)
			}
			for h := range before.Latencies {
				if math.Float64bits(after.Latencies[h]) != math.Float64bits(before.Latencies[h]) {
					t.Fatalf("budget %v: %s changed request %d's latency %v -> %v", budget, probe, h, before.Latencies[h], after.Latencies[h])
				}
			}
		}

		_, over := s.probeAdd(absent[0].Svc, absent[0].Node)
		if want := budget == 1; over != want {
			t.Fatalf("budget %v: probeAdd over = %v, want %v", budget, over, want)
		}
		check("probeAdd")
		s.probeRemoval(present.Svc, present.Node)
		check("probeRemoval")
		// A bundle is two services missing from one node.
		bundle := []chaos.Inst{absent[0]}
		for _, a := range absent[1:] {
			if a.Node == absent[0].Node {
				bundle = append(bundle, a)
				break
			}
		}
		if len(bundle) != 2 {
			t.Fatal("no node misses two services; bad test instance")
		}
		s.probeBundle(bundle)
		check("probeBundle")
	}
}
