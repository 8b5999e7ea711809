package serve

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Unserved returns the epoch's requests that got no service at all — no
// deployed instance of a chain service (Missing) or instances deployed but
// unreachable over the masked substrate (Unroutable).
func (r EpochRecord) Unserved() int { return r.Missing + r.Unroutable }

// DelayStream is a run's finite per-request latencies in epoch order, held
// as immutable blocks: an evaluated epoch writes its delays once, into a
// block sized exactly to them, and an epoch that republished the last
// evaluation appends a reference to that epoch's block instead of a copy.
// The stream therefore costs what was evaluated, not what was served, and no
// whole-run array is ever regrown. The zero value is an empty stream.
type DelayStream struct {
	blocks [][]float64
	n      int
}

// Len returns the number of delays in the stream.
func (s DelayStream) Len() int { return s.n }

// Each calls f on every delay, in epoch order.
func (s DelayStream) Each(f func(float64)) {
	for _, b := range s.blocks {
		for _, x := range b {
			f(x)
		}
	}
}

// Flatten returns the stream as one fresh slice, for order statistics.
func (s DelayStream) Flatten() []float64 {
	out := make([]float64, 0, s.n)
	for _, b := range s.blocks {
		out = append(out, b...)
	}
	return out
}

// add appends block b, which must never change afterwards. Empty blocks are
// not kept.
func (s *DelayStream) add(b []float64) {
	if len(b) > 0 {
		s.blocks = append(s.blocks, b)
		s.n += len(b)
	}
}

// MeanDelay returns the average of all per-request delays, or 0 for an empty
// run. The sum runs in stream order, as stats.Mean's does.
func (r *RunResult) MeanDelay() float64 {
	if r.AllDelays.n == 0 {
		return 0
	}
	sum := 0.0
	r.AllDelays.Each(func(x float64) { sum += x })
	return sum / float64(r.AllDelays.n)
}

// MaxDelay returns the maximum recorded delay (the paper's stability
// metric), or 0 for an empty run. Like stats.Max it starts from the first
// delay.
func (r *RunResult) MaxDelay() float64 {
	if r.AllDelays.n == 0 {
		return 0
	}
	m := r.AllDelays.blocks[0][0]
	r.AllDelays.Each(func(x float64) {
		if x > m {
			m = x
		}
	})
	return m
}

// MedianDelay returns the median per-request delay, or 0 for an empty run.
func (r *RunResult) MedianDelay() float64 { return r.DelayPercentile(50) }

// DelayPercentile returns the p-th percentile (0–100, stats.Percentile) of
// the per-request delays, or 0 for an empty run.
func (r *RunResult) DelayPercentile(p float64) float64 {
	if r.AllDelays.n == 0 {
		return 0
	}
	return stats.Percentile(r.AllDelays.Flatten(), p)
}

// TotalCost sums per-epoch deployment costs.
func (r *RunResult) TotalCost() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.Cost
	}
	return s
}

// TotalServedObjective sums the per-epoch served-part objectives (the raw
// per-epoch objective is +Inf whenever a request went unserved; the served
// part is the finite, cross-policy-comparable remainder).
func (r *RunResult) TotalServedObjective() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.ServedObjective
	}
	return s
}

func (r *RunResult) total(col func(*EpochRecord) int) int {
	n := 0
	for i := range r.Records {
		n += col(&r.Records[i])
	}
	return n
}

// TotalRequests sums per-epoch request counts.
func (r *RunResult) TotalRequests() int {
	return r.total(func(e *EpochRecord) int { return e.Requests })
}

// TotalMissing sums requests that found no instance of a chain service
// (model.ErrNoInstance with no cloud fallback) across the run.
func (r *RunResult) TotalMissing() int {
	return r.total(func(e *EpochRecord) int { return e.Missing })
}

// TotalUnroutable sums requests whose chain services were deployed yet
// unreachable (+Inf completion time) across the run.
func (r *RunResult) TotalUnroutable() int {
	return r.total(func(e *EpochRecord) int { return e.Unroutable })
}

// TotalUnserved is TotalMissing + TotalUnroutable.
func (r *RunResult) TotalUnserved() int { return r.TotalMissing() + r.TotalUnroutable() }

// TotalDegraded sums edge-served requests that completed slower than the
// same epoch's no-fault reference across the run.
func (r *RunResult) TotalDegraded() int {
	return r.total(func(e *EpochRecord) int { return e.Degraded })
}

// RecoveryRuns returns the lengths (in epochs) of every maximal run of
// epochs with unserved requests — the run's recovery times. A run still open
// when the stream ends is included (a lower bound on its true length).
func (r *RunResult) RecoveryRuns() []int {
	var runs []int
	cur := 0
	for _, s := range r.Records {
		if s.Unserved() > 0 {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// RecoveryPercentile returns the p-th percentile (0–100, linear
// interpolation) of RecoveryRuns, or 0 when service was never lost. Recovery
// times are heavy-tailed under bursty fault schedules, so the tails say more
// than MeanRecoverySlots does.
func (r *RunResult) RecoveryPercentile(p float64) float64 {
	runs := r.RecoveryRuns()
	if len(runs) == 0 {
		return 0
	}
	xs := make([]float64, len(runs))
	for i, x := range runs {
		xs[i] = float64(x)
	}
	return stats.Percentile(xs, p)
}

// MeanRecoverySlots averages RecoveryRuns, or 0 when service was never lost.
func (r *RunResult) MeanRecoverySlots() float64 {
	runs := r.RecoveryRuns()
	if len(runs) == 0 {
		return 0
	}
	n := 0
	for _, x := range runs {
		n += x
	}
	return float64(n) / float64(len(runs))
}

// Diff compares two runs bitwise — every epoch column except the wall-clock
// PlanTime/ReactTime, and the full latency stream — and returns the first
// mismatch (nil means bitwise equal).
func (r *RunResult) Diff(o *RunResult) error {
	if len(r.Records) != len(o.Records) {
		return fmt.Errorf("epoch count: %d vs %d", len(r.Records), len(o.Records))
	}
	for i := range r.Records {
		x, y := r.Records[i], o.Records[i]
		x.PlanTime, x.ReactTime, y.PlanTime, y.ReactTime = 0, 0, 0, 0
		// %v prints the shortest decimal that round-trips a float64, so equal
		// text means equal bits — and, unlike ==, NaN equals NaN.
		if a, b := fmt.Sprintf("%+v", x), fmt.Sprintf("%+v", y); a != b {
			return fmt.Errorf("epoch %d:\n  %s\n  %s", i, a, b)
		}
	}
	if r.AllDelays.n != o.AllDelays.n {
		return fmt.Errorf("delay stream length: %d vs %d", r.AllDelays.n, o.AllDelays.n)
	}
	a, b := r.AllDelays.Flatten(), o.AllDelays.Flatten()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("delay %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}
