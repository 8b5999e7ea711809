package model

import (
	"fmt"
	"math"
	"math/rand"
)

// selfCheckEvaluation revalidates a finished Evaluation against a serial
// ground-truth re-route of every request — the evaluator is the single
// scoring authority for every algorithm in the repo, so a silent
// inconsistency here corrupts every experiment. Re-routing (rather than
// inferring classes from the per-request data) is required because the
// classes are not recoverable afterwards: a disconnected-substrate request
// and a missing-instance request both end with no assignment and +Inf
// latency, yet only the latter counts in MissingInstances. The check also
// proves the counters were aggregated correctly (the recount must match)
// and that per-request results are deterministic. O(U·routing + M·N); armed
// only by the soclinvariants build tag (invariantsEnabled), free otherwise.
//
// epoch0 is the routing index's epoch before the requests were routed:
// routing leaves the placement alone, so any epoch movement (or cache
// incoherence) means a stray mutation ran during the evaluation.
func (in *Instance) selfCheckEvaluation(ev *Evaluation, ix *PlacementIndex, epoch0 uint64, mode RoutingMode, seed int64) {
	if !invariantsEnabled {
		return
	}
	if e := ix.Epoch(); e != epoch0 {
		panic(fmt.Sprintf("model: placement index mutated during evaluation (epoch %d -> %d)", epoch0, e))
	}
	if err := ix.CheckCoherent(); err != nil {
		panic("model: after evaluation: " + err.Error())
	}

	sc := &RouteScratch{}
	missing, unroutable, late, cloud := 0, 0, 0, 0
	sum := 0.0
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		var (
			a   Assignment
			d   float64
			err error
		)
		switch mode {
		case RouteModeGreedy:
			a, d, err = in.routeGreedy(req, ix)
		case RouteModeRandom:
			// Same per-request stream derivation as EvaluateRouted.
			rng := rand.New(rand.NewSource(seed + int64(h)*0x9e3779b9))
			a, d, err = in.routeRandom(req, ix, rng)
		default:
			a, d, err = in.routeOptimal(req, ix, sc)
		}
		if err != nil {
			if IsNoInstance(err) && in.Cloud != nil {
				d = in.Cloud.CloudCompletionTime(in.Workload.Catalog, req)
				cloud++
				if d > req.Deadline+FeasTol {
					late++
				}
			} else {
				d = math.Inf(1)
				missing++
			}
			if ev.Routes[h].Nodes != nil {
				panic(fmt.Sprintf("model: evaluation recount: request %d is unroutable but has assignment %v", h, ev.Routes[h].Nodes))
			}
		} else {
			if math.IsInf(d, 1) {
				unroutable++
			}
			if d > req.Deadline+FeasTol {
				late++
			}
			if len(ev.Routes[h].Nodes) != len(a.Nodes) {
				panic(fmt.Sprintf("model: evaluation recount: request %d assignment %v != recomputed %v", h, ev.Routes[h].Nodes, a.Nodes))
			}
			for t := range a.Nodes {
				if ev.Routes[h].Nodes[t] != a.Nodes[t] {
					panic(fmt.Sprintf("model: evaluation recount: request %d assignment %v != recomputed %v", h, ev.Routes[h].Nodes, a.Nodes))
				}
			}
		}
		if !almostEq(ev.Latencies[h], d, 0) {
			panic(fmt.Sprintf("model: evaluation recount: request %d latency %v != recomputed %v", h, ev.Latencies[h], d))
		}
		sum += d
	}
	if missing != ev.MissingInstances {
		panic(fmt.Sprintf("model: evaluation recount: %d missing-instance requests, counter says %d", missing, ev.MissingInstances))
	}
	if unroutable != ev.Unroutable {
		panic(fmt.Sprintf("model: evaluation recount: %d unroutable requests, counter says %d", unroutable, ev.Unroutable))
	}
	if late != ev.DeadlineViolated {
		panic(fmt.Sprintf("model: evaluation recount: %d deadline violations, counter says %d", late, ev.DeadlineViolated))
	}
	if cloud != ev.CloudServed {
		panic(fmt.Sprintf("model: evaluation recount: %d cloud-served requests, counter says %d", cloud, ev.CloudServed))
	}

	// Scalar fields must equal their defining recomputations. The latency
	// sum is compared exactly: both sides sum the same values in index
	// order, so they are bitwise equal.
	if !almostEq(sum, ev.LatencySum, 0) {
		panic(fmt.Sprintf("model: evaluation LatencySum %v != recomputed %v", ev.LatencySum, sum))
	}
	if !almostEq(ev.Cost, in.DeployCost(ev.Placement), 0) {
		panic(fmt.Sprintf("model: evaluation Cost %v != recomputed deploy cost %v", ev.Cost, in.DeployCost(ev.Placement)))
	}
	if !almostEq(ev.Objective, in.Objective(ev.Cost, ev.LatencySum), 0) {
		panic(fmt.Sprintf("model: evaluation Objective %v != recomputed %v", ev.Objective, in.Objective(ev.Cost, ev.LatencySum)))
	}
	if got := in.CheckStorage(ev.Placement); got != ev.StorageViolatedAt {
		panic(fmt.Sprintf("model: evaluation StorageViolatedAt %d != recomputed %d", ev.StorageViolatedAt, got))
	}
	if over := !in.CheckBudget(ev.Placement); over != ev.OverBudget {
		panic(fmt.Sprintf("model: evaluation OverBudget %v != recomputed %v", ev.OverBudget, over))
	}
}

// almostEq is |a-b| <= eps with equal infinities equal (eps 0 = exact).
func almostEq(a, b, eps float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) || math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	return math.Abs(a-b) <= eps
}
