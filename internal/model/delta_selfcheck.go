package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/msvc"
)

// selfCheckDelta revalidates a DeltaEvaluator evaluation against a scratch
// EvaluateRouted of the same placement — the runtime proof of the engine's
// central claim that cache hits are exact, not approximate. Armed by the
// `soclinvariants` build tag (invariantsEnabled), free otherwise. Because
// every delta consumer funnels through Eval, arming this single check covers
// GC-OG's per-round candidate probes and the figure sweeps alike.
func (d *DeltaEvaluator) selfCheckDelta(ev *Evaluation) {
	if !invariantsEnabled {
		return
	}
	if err := d.ix.CheckCoherent(); err != nil {
		panic("model: delta eval: " + err.Error())
	}
	fresh := d.in.EvaluateRouted(d.ix.Placement(), d.mode, d.seed)
	if !almostEq(ev.Objective, fresh.Objective, 0) ||
		!almostEq(ev.LatencySum, fresh.LatencySum, 0) ||
		!almostEq(ev.Cost, fresh.Cost, 0) {
		panic(fmt.Sprintf("model: delta eval scalars diverge from scratch evaluation: objective %v vs %v, latency %v vs %v, cost %v vs %v",
			ev.Objective, fresh.Objective, ev.LatencySum, fresh.LatencySum, ev.Cost, fresh.Cost))
	}
	if ev.MissingInstances != fresh.MissingInstances ||
		ev.Unroutable != fresh.Unroutable ||
		ev.CloudServed != fresh.CloudServed ||
		ev.DeadlineViolated != fresh.DeadlineViolated ||
		ev.StorageViolatedAt != fresh.StorageViolatedAt ||
		ev.OverBudget != fresh.OverBudget {
		panic(fmt.Sprintf("model: delta eval counters diverge from scratch evaluation: %+v vs %+v", countersOf(ev), countersOf(fresh)))
	}
	for h := range ev.Routes {
		if !almostEq(ev.Latencies[h], fresh.Latencies[h], 0) {
			panic(fmt.Sprintf("model: delta eval request %d latency %v != scratch %v", h, ev.Latencies[h], fresh.Latencies[h]))
		}
		a, b := ev.Routes[h].Nodes, fresh.Routes[h].Nodes
		if len(a) != len(b) {
			panic(fmt.Sprintf("model: delta eval request %d route %v != scratch %v", h, a, b))
		}
		for t := range a {
			if a[t] != b[t] {
				panic(fmt.Sprintf("model: delta eval request %d route %v != scratch %v", h, a, b))
			}
		}
	}
}

// selfCheckSummary holds a computed Summary against a scratch evaluation's,
// bit for bit.
func (d *DeltaEvaluator) selfCheckSummary(s EvalSummary) {
	if !invariantsEnabled {
		return
	}
	if fresh := d.in.EvaluateRouted(d.ix.Placement(), d.mode, d.seed).Summary(); !s.sameBits(fresh) {
		panic(fmt.Sprintf("model: delta summary diverges from scratch evaluation: %+v vs %+v", s, fresh))
	}
}

// selfCheckDeltaScalars is the EvalObjective counterpart: the fast path's
// two outputs must match a scratch evaluation exactly.
func (d *DeltaEvaluator) selfCheckDeltaScalars(objective float64, overBudget bool) {
	if !invariantsEnabled {
		return
	}
	fresh := d.in.EvaluateRouted(d.ix.Placement(), d.mode, d.seed)
	if !almostEq(objective, fresh.Objective, 0) || overBudget != fresh.OverBudget {
		panic(fmt.Sprintf("model: delta EvalObjective diverges from scratch evaluation: objective %v vs %v, overBudget %v vs %v",
			objective, fresh.Objective, overBudget, fresh.OverBudget))
	}
}

// selfCheckAnyLate holds AnyLate's verdict, and every valid entry it may
// have read, against a scratch evaluation: the verdict is whether some
// finite-deadline request is missing or late there.
func (d *DeltaEvaluator) selfCheckAnyLate(late bool) {
	if !invariantsEnabled {
		return
	}
	fresh := d.in.EvaluateRouted(d.ix.Placement(), d.mode, d.seed)
	if got := lateCount(d.in.Workload.Requests, fresh) > 0; got != late {
		panic(fmt.Sprintf("model: AnyLate = %v, scratch evaluation says %v", late, got))
	}
	for h := range d.routes {
		if e := &d.routes[h]; e.valid && !almostEq(e.lat, fresh.Latencies[h], 0) {
			panic(fmt.Sprintf("model: AnyLate read request %d's cached latency %v, scratch %v", h, e.lat, fresh.Latencies[h]))
		}
	}
}

// lateCount is the number of finite-deadline requests ev leaves missing
// (+Inf) or late.
func lateCount(reqs []msvc.Request, ev *Evaluation) int {
	n := 0
	for h := range reqs {
		if dl := reqs[h].Deadline; !math.IsInf(dl, 1) && ev.Latencies[h] > dl+FeasTol {
			n++
		}
	}
	return n
}

// selfCheckProbe revalidates a memoized ProbeRemoval against a scratch
// evaluation of the counterfactual placement.
func (d *DeltaEvaluator) selfCheckProbe(svc, node int, objective float64, overBudget bool) {
	if !invariantsEnabled {
		return
	}
	probe := d.ix.Placement().Clone()
	probe.Set(svc, node, false)
	fresh := d.in.EvaluateRouted(probe, d.mode, d.seed)
	if !almostEq(objective, fresh.Objective, 0) || overBudget != fresh.OverBudget {
		panic(fmt.Sprintf("model: ProbeRemoval(%d,%d) diverges from scratch evaluation: objective %v vs %v, overBudget %v vs %v",
			svc, node, objective, fresh.Objective, overBudget, fresh.OverBudget))
	}
}

// selfCheckProbeAdd revalidates ProbeAdd's extended DP rows against a scratch
// evaluation of the counterfactual placement.
func (d *DeltaEvaluator) selfCheckProbeAdd(node int, svcs []int, pr AddProbe) {
	if !invariantsEnabled {
		return
	}
	probe := d.ix.Placement().Clone()
	for _, s := range svcs {
		probe.Set(s, node, true)
	}
	fresh := d.addProbeOf(d.in.EvaluateRouted(probe, d.mode, d.seed).Summary())
	if pr.MissingInstances != fresh.MissingInstances || pr.Unroutable != fresh.Unroutable ||
		!almostEq(pr.ServedLatencySum, fresh.ServedLatencySum, 0) ||
		!almostEq(pr.Cost, fresh.Cost, 0) || pr.OverBudget != fresh.OverBudget {
		panic(fmt.Sprintf("model: ProbeAdd(%d, %v) diverges from scratch evaluation: %+v vs %+v", node, svcs, pr, fresh))
	}
}

// countersOf extracts the violation counters for diagnostics.
func countersOf(ev *Evaluation) [6]int {
	over := 0
	if ev.OverBudget {
		over = 1
	}
	return [6]int{ev.MissingInstances, ev.Unroutable, ev.CloudServed, ev.DeadlineViolated, ev.StorageViolatedAt, over}
}

// selfCheckPending holds the entries a refresh is about to re-route — the
// pending list's invalid ones — against the scan it replaced: every invalid
// entry, each once, and no entry left marked as listed.
func (d *DeltaEvaluator) selfCheckPending(dirty []int) {
	if !invariantsEnabled {
		return
	}
	invalid := 0
	for h := range d.routes {
		if e := &d.routes[h]; e.queued {
			panic(fmt.Sprintf("model: refresh left request %d marked pending", h))
		} else if !e.valid {
			invalid++
		}
	}
	seen := make(map[int]bool, len(dirty))
	for _, h := range dirty {
		if seen[h] || d.routes[h].valid {
			panic(fmt.Sprintf("model: refresh's pending list %v names request %d twice or valid", dirty, h))
		}
		seen[h] = true
	}
	if invalid != len(dirty) {
		panic(fmt.Sprintf("model: refresh found %d invalid entries on its pending list, a scan %d", len(dirty), invalid))
	}
}

// selfCheckEdit holds the list an EditRequests batch left against the
// caller's edited list — an edit the batch did not describe would otherwise
// be scored on the old request — and chainReqs, unless departures left it
// for the next read to rebuild, against a rebuild.
func (d *DeltaEvaluator) selfCheckEdit(reqs []msvc.Request) {
	if !invariantsEnabled {
		return
	}
	own := d.in.Workload.Requests
	if len(own) != len(reqs) || len(d.routes) != len(reqs) {
		panic(fmt.Sprintf("model: EditRequests left %d requests and %d routes, the caller has %d", len(own), len(d.routes), len(reqs)))
	}
	for h := range reqs {
		if !sameRequest(&own[h], &reqs[h]) {
			panic(fmt.Sprintf("model: EditRequests left request %d as %+v, the caller has %+v (an edit the batch did not describe)", h, own[h], reqs[h]))
		}
	}
	if d.chainStale {
		return
	}
	want := make([][]int, len(d.chainReqs))
	for h := range own {
		for t, svc := range own[h].Chain {
			if !slices.Contains(own[h].Chain[:t], svc) {
				want[svc] = append(want[svc], h)
			}
		}
	}
	for svc := range want {
		if !slices.Equal(want[svc], d.chainReqs[svc]) {
			panic(fmt.Sprintf("model: EditRequests left chainReqs[%d] = %v, a rebuild gives %v", svc, d.chainReqs[svc], want[svc]))
		}
	}
}
