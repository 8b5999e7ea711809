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

// MeanDelay returns the average of all per-request delays.
func (r *RunResult) MeanDelay() float64 { return stats.Mean(r.AllDelays) }

// MaxDelay returns the maximum recorded delay (the paper's stability
// metric), or 0 for an empty run.
func (r *RunResult) MaxDelay() float64 {
	if len(r.AllDelays) == 0 {
		return 0
	}
	return stats.Max(r.AllDelays)
}

// MedianDelay returns the median per-request delay, or 0 for an empty run.
func (r *RunResult) MedianDelay() float64 {
	if len(r.AllDelays) == 0 {
		return 0
	}
	return stats.Median(r.AllDelays)
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
	if len(r.AllDelays) != len(o.AllDelays) {
		return fmt.Errorf("delay stream length: %d vs %d", len(r.AllDelays), len(o.AllDelays))
	}
	for i := range r.AllDelays {
		if math.Float64bits(r.AllDelays[i]) != math.Float64bits(o.AllDelays[i]) {
			return fmt.Errorf("delay %d: %v vs %v", i, r.AllDelays[i], o.AllDelays[i])
		}
	}
	return nil
}
