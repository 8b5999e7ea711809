package repair

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/stats"
)

// This file is the repair phases' net of their own. The differential tests
// (TestRepairMatchesNaive*) hold the delta scorer against a scratch one, but
// both sides share repairWith, so a mistake in what the phases decide — the
// damaged services, the unserved requests, the eviction verdicts — is made
// identically on both. Here each decision is derived again from a scratch
// EvaluateRouted and the model's own constraint checks, and every call the
// phases make through the scorer seam is held to it, in order.

// call is one scorer call a repair made.
type call struct {
	op   string // "remove", "add", "bundle" or "set"
	inst chaos.Inst
	val  bool
	adds []chaos.Inst
}

// recorder logs every probe and commit on its way to the scorer it wraps.
type recorder struct {
	scorer
	log []call
}

func (r *recorder) probeRemoval(i, k int) score {
	r.log = append(r.log, call{op: "remove", inst: chaos.Inst{Svc: i, Node: k}})
	return r.scorer.probeRemoval(i, k)
}

func (r *recorder) probeAdd(i, k int) (score, bool) {
	r.log = append(r.log, call{op: "add", inst: chaos.Inst{Svc: i, Node: k}})
	return r.scorer.probeAdd(i, k)
}

func (r *recorder) probeBundle(adds []chaos.Inst) (score, bool) {
	r.log = append(r.log, call{op: "bundle", adds: slices.Clone(adds)})
	return r.scorer.probeBundle(adds)
}

func (r *recorder) set(i, k int, val bool) {
	r.log = append(r.log, call{op: "set", inst: chaos.Inst{Svc: i, Node: k}, val: val})
	r.scorer.set(i, k, val)
}

// phaseCase is one generated (mask, placement, workload).
type phaseCase struct {
	label string
	in    *model.Instance
	m     *chaos.Mask
	p     model.Placement
	mode  model.RoutingMode
}

// phaseCases draws n cases over 8–12 node substrates: cloud on and off, all
// three routing modes, a service taken out of the placement (its requests go
// to the cloud or unserved), node crashes, storage shrinks that force
// evictions, link degradations, and a budget the masked placement overruns by
// less than any one instance costs — alone, and with storage evictions that
// bring it back within budget.
func phaseCases(t *testing.T, n int) []phaseCase {
	t.Helper()
	var cases []phaseCase
	for c := 0; c < n; c++ {
		seed := int64(100 + c)
		r := stats.NewRand(stats.SplitSeed(seed, "repair-phases"))
		in := testInstance(t, 8+c%5, 20+5*(c%3), seed)
		if c%4 >= 2 {
			cc := model.DefaultCloudConfig()
			in.Cloud = &cc
		}
		p := baselines.JDR(in)
		if c%4 == 2 {
			svc := r.Intn(in.M())
			for k := range p.X[svc] {
				p.Set(svc, k, false)
			}
		}
		for j := 0; j < c%3; j++ {
			p.Set(r.Intn(in.M()), r.Intn(in.V()), true)
		}
		m := chaos.NewMask(in.Graph)
		apply := func(ev chaos.Event) {
			if err := m.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		crashes := 0
		if c%5 <= 2 {
			crashes = 1 + c%2
		}
		for k := r.Intn(in.V()); crashes > 0 && k < in.V(); k++ {
			if slices.ContainsFunc(p.X, func(row []bool) bool { return row[k] }) {
				apply(chaos.Event{Kind: chaos.NodeCrash, Node: k})
				crashes--
			}
		}
		if c%3 == 1 || c%4 == 0 {
			for j := 0; j < 1+c%2; j++ {
				k := r.Intn(in.V())
				for !slices.ContainsFunc(p.X, func(row []bool) bool { return row[k] }) {
					k = (k + 1) % in.V() // a loaded node, so that the shrink bites
				}
				apply(chaos.Event{Kind: chaos.StorageShrink, Node: k, Factor: 0.2 + 0.3*r.Float64()})
			}
		}
		if c%7 == 0 {
			links := m.Links()
			l := links[r.Intn(len(links))]
			apply(chaos.Event{Kind: chaos.LinkDegrade, A: l.A, B: l.B, Factor: 0.1})
		}
		if c%3 == 0 {
			masked, _ := m.MaskPlacement(p)
			minKappa := math.Inf(1)
			for i := 0; i < in.M(); i++ {
				minKappa = math.Min(minKappa, in.Workload.Catalog.Service(i).DeployCost)
			}
			in.Budget = in.DeployCost(masked) - minKappa/2
		}
		mode := []model.RoutingMode{model.RouteModeOptimal, model.RouteModeGreedy, model.RouteModeRandom}[c%3]
		cases = append(cases, phaseCase{
			label: fmt.Sprintf("case %d (%s, cloud=%v, down=%v)", c, mode, in.Cloud != nil, m.DownNodes()),
			in:    in, m: m, p: p, mode: mode,
		})
	}
	return cases
}

// TestRepairPhasesMatchScratch holds, on 60 generated cases, what the repair
// phases decide against a derivation of their own from scratch evaluations:
// Classify's lost instances and its storage and budget verdicts, which stand
// in for the evictions' first checks; the damaged services phase 2 refines;
// and, call by call, every eviction round's probes (a storage round probes
// the first over-filled node's instances, a budget round every instance, and
// no round runs on a feasible placement), every phase-1 round's restoration
// bundles (the requests with +Inf latency, ascending, on every up node with
// the headroom) and every phase-2 round's single adds. Run must then make the
// same repair as the recorded one.
func TestRepairPhasesMatchScratch(t *testing.T) {
	var storageRounds, budgetRounds, bundleCommits, cloudOnly, evictedToBudget int
	for _, pc := range phaseCases(t, 60) {
		in, m, mode := pc.in, pc.m, pc.mode
		const seed = 5
		min := m.Instance(in)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s: %s", pc.label, fmt.Sprintf(format, args...))
		}

		// The masked placement and the verdicts on it.
		P := pc.p.Clone()
		var lost []chaos.Inst
		for i := range P.X {
			for k := range P.X[i] {
				if P.X[i][k] && !m.NodeUp(k) {
					P.Set(i, k, false)
					lost = append(lost, chaos.Inst{Svc: i, Node: k})
				}
			}
		}
		var violated []int
		for k := 0; k < min.V(); k++ {
			if min.StorageUsed(P, k) > min.Graph.Node(k).Storage+model.FeasTol {
				violated = append(violated, k)
			}
		}
		dmg, masked := Classify(in, m, pc.p)
		if !slices.Equal(dmg.Lost, lost) || !slices.Equal(dmg.StorageViolated, violated) ||
			dmg.OverBudget != !min.CheckBudget(P) || !reflect.DeepEqual(masked, P) {
			fail("Classify gives %+v on %v; the scratch derivation lost %v, over-fills %v, over budget %v on %v",
				dmg, masked, lost, violated, !min.CheckBudget(P), P)
		}

		// Phase 2's damaged services: the lost ones, and every service in the
		// chain of a request the masked placement does not serve at the edge.
		ev0 := min.EvaluateRouted(P, mode, seed)
		damaged := make([]bool, min.M())
		for _, l := range lost {
			damaged[l.Svc] = true
		}
		edgeDamaged := false
		for h, req := range min.Workload.Requests {
			if ev0.Routes[h].Nodes == nil || math.IsInf(ev0.Latencies[h], 1) {
				edgeDamaged = true
				for _, s := range req.Chain {
					damaged[s] = true
				}
			}
		}
		if len(lost) == 0 && ev0.Unserved() == 0 && ev0.CloudServed > 0 {
			cloudOnly++
		}
		got := damagedServices(min, ev0, ev0.Summary(), dmg)
		if got == nil {
			got = make([]bool, min.M())
		}
		if !slices.Equal(got, damaged) {
			fail("damaged services %v, the scratch derivation %v (edge-damaged requests: %v)", got, damaged, edgeDamaged)
		}

		rec := &recorder{scorer: &deltaScorer{in: min, d: model.NewDeltaEvaluator(min, masked.Clone(), mode, seed)}}
		res := repairWith(min, m, dmg, rec)
		log, pos := rec.log, 0
		next := func() *call {
			if pos < len(log) {
				return &log[pos]
			}
			return nil
		}
		expect := func(op string, inst chaos.Inst) {
			t.Helper()
			if c := next(); c == nil || c.op != op || c.inst != inst {
				fail("call %d is %+v, want %s %v", pos, c, op, inst)
			}
			pos++
		}
		commit := func(cands []chaos.Inst, val bool) chaos.Inst {
			t.Helper()
			c := next()
			if c == nil || c.op != "set" || c.val != val || !slices.Contains(cands, c.inst) {
				fail("call %d is %+v, want a set to %v of one of %v", pos, c, val, cands)
			}
			pos++
			P.Set(c.inst.Svc, c.inst.Node, val)
			return c.inst
		}

		// Evictions: storage rounds while some node over-fills, then budget
		// rounds while the deployment overruns, then nothing.
		budgetBefore := budgetRounds
		for {
			var cands []chaos.Inst
			if k := min.CheckStorage(P); k >= 0 {
				storageRounds++
				for i := range P.X {
					if P.Has(i, k) {
						cands = append(cands, chaos.Inst{Svc: i, Node: k})
					}
				}
			} else if !min.CheckBudget(P) {
				budgetRounds++
				for i := range P.X {
					for k := range P.X[i] {
						if P.Has(i, k) {
							cands = append(cands, chaos.Inst{Svc: i, Node: k})
						}
					}
				}
			} else {
				break
			}
			for _, c := range cands {
				expect("remove", c)
			}
			damaged[commit(cands, false).Svc] = true
		}
		if dmg.OverBudget && budgetRounds == budgetBefore {
			evictedToBudget++ // the storage evictions alone met the budget
		}

		// Phase 1: each round walks the unserved requests ascending and
		// probes each one's restoration bundle on every up node; a commit
		// ends the round.
		for {
			ev := min.EvaluateRouted(P, mode, seed)
			committed := false
			for h := range min.Workload.Requests {
				if !math.IsInf(ev.Latencies[h], 1) {
					continue
				}
				var group [][]chaos.Inst
				for k := 0; k < min.V(); k++ {
					if b := scratchBundle(min, P, h, k); m.NodeUp(k) && b != nil {
						group = append(group, b)
					}
				}
				for _, b := range group {
					if c := next(); c == nil || c.op != "bundle" || !slices.Equal(c.adds, b) {
						fail("call %d is %+v, want request %d's bundle %v", pos, c, h, b)
					}
					pos++
				}
				if c := next(); len(group) == 0 || c == nil || c.op != "set" {
					continue
				}
				i := slices.IndexFunc(group, func(b []chaos.Inst) bool { return b[0] == next().inst })
				if i < 0 {
					fail("call %d commits %v, which starts none of request %d's bundles %v", pos, next().inst, h, group)
				}
				for _, a := range group[i] {
					commit([]chaos.Inst{a}, true)
				}
				bundleCommits++
				committed = true
				break
			}
			if !committed {
				break
			}
		}

		// Phase 2: each round probes every damaged service with budget
		// headroom on every up node with storage headroom, and commits at
		// most one of them.
		for slices.Contains(damaged, true) {
			cost := min.DeployCost(P)
			var cands []chaos.Inst
			for i := 0; i < min.M(); i++ {
				svc := min.Workload.Catalog.Service(i)
				if !damaged[i] || cost+svc.DeployCost > min.Budget+model.FeasTol {
					continue
				}
				for k := 0; k < min.V(); k++ {
					if m.NodeUp(k) && !P.Has(i, k) && min.StorageUsed(P, k)+svc.Storage <= min.Graph.Node(k).Storage+model.FeasTol {
						cands = append(cands, chaos.Inst{Svc: i, Node: k})
					}
				}
			}
			for _, c := range cands {
				expect("add", c)
			}
			if next() == nil {
				break
			}
			commit(cands, true)
		}
		if pos != len(log) {
			fail("the repair made %d calls past the derivation's end: %+v", len(log)-pos, log[pos:])
		}
		if !reflect.DeepEqual(res.Placement, P) {
			fail("the repaired placement is not the one the calls built")
		}
		run := Run(in, m, pc.p, Config{Mode: mode, Seed: seed})
		if !reflect.DeepEqual(run.Added, res.Added) || !reflect.DeepEqual(run.Evicted, res.Evicted) || !reflect.DeepEqual(run.Placement, P) {
			fail("Run added %v and evicted %v, the recorded repair %v and %v", run.Added, run.Evicted, res.Added, res.Evicted)
		}
	}
	t.Logf("%d storage and %d budget eviction rounds, %d bundle commits, %d cases with only cloud-served damage, %d over budget until storage evictions",
		storageRounds, budgetRounds, bundleCommits, cloudOnly, evictedToBudget)
	if storageRounds == 0 || budgetRounds == 0 || bundleCommits == 0 || cloudOnly == 0 || evictedToBudget == 0 {
		t.Fatal("the generated cases miss a phase; they test less than they claim")
	}
}

// scratchBundle is request h's restoration bundle on node k under P: its
// chain services not on k, each once, in chain order — nil when there are
// none, or when k lacks the storage or the deployment the budget for all of
// them. Sums run in the order the phase's own checks add them.
func scratchBundle(min *model.Instance, P model.Placement, h, k int) []chaos.Inst {
	var b []chaos.Inst
	need, cost := min.StorageUsed(P, k), min.DeployCost(P)
	for _, i := range min.Workload.Requests[h].Chain {
		if P.Has(i, k) || slices.Contains(b, chaos.Inst{Svc: i, Node: k}) {
			continue
		}
		svc := min.Workload.Catalog.Service(i)
		need += svc.Storage
		cost += svc.DeployCost
		b = append(b, chaos.Inst{Svc: i, Node: k})
	}
	if need > min.Graph.Node(k).Storage+model.FeasTol || cost > min.Budget+model.FeasTol {
		return nil
	}
	return b
}
