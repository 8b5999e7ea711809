package model

import (
	"fmt"
	"math"
	"slices"
)

// EvalSummary is an exact evaluation's scalars: what a consumer that ranks,
// gates or records an evaluation reads of it without its per-request
// vectors. Every field is bitwise the one the full Evaluation carries or
// derives — the sums run in request-index order.
type EvalSummary struct {
	Cost       float64 // Σ_k 𝒦_k
	Objective  float64 // λ·Cost + (1−λ)·LatencySum
	LatencySum float64 // Σ_h 𝒟_h, +Inf when some request is unserved
	// ServedLatencySum is the sum of the finite latencies — the requests some
	// instance or the cloud serves — and Finite their number.
	ServedLatencySum float64
	Finite           int

	MissingInstances int
	Unroutable       int
	CloudServed      int
	DeadlineViolated int
}

// Unserved returns the number of requests served neither at the edge nor by
// the cloud fallback, as Evaluation.Unserved.
func (s EvalSummary) Unserved() int { return s.MissingInstances + s.Unroutable }

// sameBits reports whether two summaries are equal bit for bit.
func (s EvalSummary) sameBits(o EvalSummary) bool {
	bits := math.Float64bits
	return bits(s.Cost) == bits(o.Cost) && bits(s.Objective) == bits(o.Objective) &&
		bits(s.LatencySum) == bits(o.LatencySum) && bits(s.ServedLatencySum) == bits(o.ServedLatencySum) &&
		s.Finite == o.Finite && s.MissingInstances == o.MissingInstances && s.Unroutable == o.Unroutable &&
		s.CloudServed == o.CloudServed && s.DeadlineViolated == o.DeadlineViolated
}

// EvalView is the read side of an exact evaluation, which both a full
// *Evaluation and a *DeltaEvaluator serve: the summary, request h's latency
// and edge route (nil when the cloud serves it or nothing does), the finite
// latencies in request order, and — for the consumer that needs the whole
// object — the Evaluation itself. A DeltaEvaluator answers the per-request
// reads only once Summary or Eval has brought its routes up to date, and
// only until its next mutation.
type EvalView interface {
	Summary() EvalSummary
	Latency(h int) float64
	RouteNodes(h int) []int
	AppendFinite(dst []float64) []float64
	Eval() *Evaluation
}

// Summary returns the evaluation's scalars.
func (e *Evaluation) Summary() EvalSummary {
	s := EvalSummary{
		Cost: e.Cost, Objective: e.Objective, LatencySum: e.LatencySum,
		MissingInstances: e.MissingInstances, Unroutable: e.Unroutable,
		CloudServed: e.CloudServed, DeadlineViolated: e.DeadlineViolated,
	}
	for _, d := range e.Latencies {
		if !math.IsInf(d, 1) {
			s.ServedLatencySum += d
			s.Finite++
		}
	}
	return s
}

// Latency returns request h's completion time.
func (e *Evaluation) Latency(h int) float64 { return e.Latencies[h] }

// RouteNodes returns request h's edge route.
func (e *Evaluation) RouteNodes(h int) []int { return e.Routes[h].Nodes }

// AppendFinite appends the finite latencies to dst in request order.
func (e *Evaluation) AppendFinite(dst []float64) []float64 {
	for _, d := range e.Latencies {
		if !math.IsInf(d, 1) {
			dst = append(dst, d)
		}
	}
	return dst
}

// Eval returns e itself.
func (e *Evaluation) Eval() *Evaluation { return e }

// DiffView returns the first read of v that differs from ev — the summary
// bit for bit, each request's latency bit for bit and its route by slice
// identity, the finite latencies — or nil when v reads exactly ev.
func DiffView(v EvalView, ev *Evaluation) error {
	if got, want := v.Summary(), ev.Summary(); !got.sameBits(want) {
		return fmt.Errorf("model: the summary %+v differs from the evaluation's %+v", got, want)
	}
	for h := range ev.Latencies {
		if got := v.Latency(h); math.Float64bits(got) != math.Float64bits(ev.Latencies[h]) {
			return fmt.Errorf("model: request %d reads latency %v, the evaluation %v", h, got, ev.Latencies[h])
		}
		if got := v.RouteNodes(h); !sameStorage(got, ev.Routes[h].Nodes) {
			return fmt.Errorf("model: request %d reads route %v, the evaluation %v (or another slice)", h, got, ev.Routes[h].Nodes)
		}
	}
	if got, want := v.AppendFinite(nil), ev.AppendFinite(nil); !slices.EqualFunc(got, want, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		return fmt.Errorf("model: the finite latencies %v differ from the evaluation's %v", got, want)
	}
	return nil
}
