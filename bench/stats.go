package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it. Nearest rank
// never invents a value between two samples, so a p99 of a pass is always a
// latency the program really showed. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// median returns the middle sample, or the mean of the middle two; 0 for no
// samples, where stats.Median panics.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method) so `bench
// compare` and the driver judge steadiness by the same number. Fewer than two
// samples, or a zero median, have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		n := len(s)
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / m)
}

// Metric is one named number of a workload: the median over the measured
// passes, the per-pass values behind it, and how many timed operations fed
// them. Pass 0 of every workload is a warm-up and never appears here.
type Metric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Passes []float64 `json:"passes"`
	// Samples counts the timed operations behind the metric over all
	// measured passes (for a per-pass percentile: the latencies ranked).
	Samples int `json:"samples"`
	// Reported marks a number the program itself handed back in a public
	// result struct, as opposed to one the bench clocked.
	Reported bool `json:"reported,omitempty"`
}

// newMetric folds per-pass values into a Metric.
func newMetric(d metricDef, perPass []float64, samples int) Metric {
	m := Metric{Name: d.name, Unit: d.unit, Better: d.better, Passes: perPass,
		Samples: samples, Reported: d.reported, Median: median(perPass)}
	if len(perPass) > 0 {
		m.Min, m.Max = perPass[0], perPass[0]
		for _, v := range perPass {
			m.Min = math.Min(m.Min, v)
			m.Max = math.Max(m.Max, v)
		}
	}
	return m
}
