// Package invariant is the runtime counterpart of the socllint analyzers: a
// build-tag-gated assertion layer that checks, while the algorithms run, the
// properties the static passes can only approximate. Build with
//
//	go test -tags soclinvariants ./...
//
// to arm it; without the tag every function returns immediately and the
// compiler deletes the calls, so hot paths pay nothing.
//
// The checks mirror the paper's feasibility system: deadline satisfaction
// (Eq. 4), the deployment budget (Eq. 5), per-node storage capacity (Eq. 6),
// and — beyond the paper — coherence of the PlacementIndex cache with its
// placement, the exact bug class PR 1 fixed.
//
// Dependency direction: invariant imports model, never the reverse.
package invariant

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Assert panics with msg when cond is false (and checks are Enabled).
func Assert(cond bool, msg string) {
	if !Enabled || cond {
		return
	}
	panic("invariant: " + msg)
}

// Assertf is Assert with formatting; args are not evaluated when disabled
// only if the caller guards with Enabled — prefer Assert for hot sites.
func Assertf(cond bool, format string, args ...any) {
	if !Enabled || cond {
		return
	}
	panic("invariant: " + fmt.Sprintf(format, args...))
}

// AlmostEq reports |a-b| <= eps, treating equal infinities as equal. It is
// the comparison the floateq analyzer demands instead of ==.
func AlmostEq(a, b, eps float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) || math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	return math.Abs(a-b) <= eps
}

// IndexWatch memoizes coherence verification of one PlacementIndex by epoch:
// a full O(M·N) CheckCoherent scan runs only when the index mutated since
// the last verified scan, so per-phase checks stay cheap in long runs.
// The zero value is ready to use. Not safe for concurrent use.
type IndexWatch struct {
	epoch   uint64
	checked bool
}

// Check verifies ix's cached candidate lists against its placement, skipping
// the scan when the epoch is unchanged since the last verified Check.
func (w *IndexWatch) Check(ix *model.PlacementIndex) {
	if !Enabled || ix == nil {
		return
	}
	if w.checked && ix.Epoch() == w.epoch {
		return
	}
	if err := ix.CheckCoherent(); err != nil {
		panic("invariant: " + err.Error())
	}
	w.epoch, w.checked = ix.Epoch(), true
}

// CheckBudget panics when the placement's deployment cost exceeds the
// instance budget (Eq. 5).
func CheckBudget(in *model.Instance, p model.Placement, where string) {
	if !Enabled {
		return
	}
	if !in.CheckBudget(p) {
		panic(fmt.Sprintf("invariant: %s: deployment cost %.6g exceeds budget %.6g (Eq. 5)", where, in.DeployCost(p), in.Budget))
	}
}

// CheckStorage panics when any node's stored instance volume exceeds its
// capacity (Eq. 6).
func CheckStorage(in *model.Instance, p model.Placement, where string) {
	if !Enabled {
		return
	}
	if k := in.CheckStorage(p); k >= 0 {
		panic(fmt.Sprintf("invariant: %s: node %d stores %.6g > capacity %.6g (Eq. 6)", where, k, in.StorageUsed(p, k), in.Graph.Node(k).Storage))
	}
}

// CheckPostRepair revalidates a repaired placement against the paper's
// feasibility system on the (possibly fault-masked) substrate the evaluation
// was produced on. Eq. 5 and Eq. 6 are hard: repair's eviction phases must
// leave cost within budget and every node within its masked capacity, so any
// violation is a repair bug. Eq. 4 is soft under faults — a degraded
// substrate may make some deadlines physically unmeetable, and repair's
// contract is honest accounting rather than a guarantee — so it is only
// recounted (CheckDeadlineRecount).
func CheckPostRepair(in *model.Instance, ev *model.Evaluation, where string) {
	if !Enabled {
		return
	}
	CheckBudget(in, ev.Placement, where)
	CheckStorage(in, ev.Placement, where)
	CheckDeadlineRecount(in, ev, where)
}

// CheckDeadlineRecount recounts Eq. 4 violations from an evaluation's
// per-request latencies and panics when the recount disagrees with the
// evaluation's counter. It holds for any evaluation, repaired or not. The
// class split is the evaluator's: a request with no deployed instance of some
// chain service and no cloud fallback is Missing and outside Eq. 4; every
// other request — an unroutable one, whose services are deployed but
// disconnected from it, included — is late iff its latency exceeds its
// deadline.
func CheckDeadlineRecount(in *model.Instance, ev *model.Evaluation, where string) {
	if !Enabled {
		return
	}
	late := 0
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		if math.IsInf(ev.Latencies[h], 1) && missingInstance(ev.Placement, req.Chain) {
			continue
		}
		if ev.Latencies[h] > req.Deadline+model.FeasTol {
			late++
		}
	}
	if late != ev.DeadlineViolated {
		panic(fmt.Sprintf("invariant: %s: %d deadline violations recounted from latencies, evaluation says %d (Eq. 4)", where, late, ev.DeadlineViolated))
	}
}

// missingInstance reports whether some service of chain has no instance in p.
func missingInstance(p model.Placement, chain []int) bool {
	for _, svc := range chain {
		if p.Count(svc) == 0 {
			return true
		}
	}
	return false
}
