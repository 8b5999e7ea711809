// Package trace synthesizes Alibaba-Cluster-like microservice request
// traces and implements the analyses behind the SoCL paper's motivation
// figures: service/trace similarity (Fig. 3) and the temporal distribution
// of request volumes (Fig. 4).
//
// The real Alibaba Cluster Trace Program data is proprietary-scale and not
// redistributable here; per DESIGN.md, this generator reproduces the
// summary statistics the paper relies on — heterogeneous per-service
// activity profiles across trace files, dependency chains longer than 12
// microservices with bounded cross-trace similarity (max ≈ 0.65), and a
// double-peaked diurnal request-rate curve with noise.
package trace

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// Config parameterizes trace synthesis.
type Config struct {
	NumServices     int     // number of distinct services (paper: top 10)
	NumFiles        int     // trace files the events are sharded into
	DurationMinutes float64 // total trace span
	BaseRatePerMin  float64 // baseline arrival intensity per service

	// Peaks are diurnal intensity bumps: at PeakTimes[i] (minutes), the
	// rate is multiplied by 1 + PeakGains[i]·gauss(t; σ=PeakWidth).
	PeakTimes []float64
	PeakGains []float64
	PeakWidth float64

	// ChainLength is the dependency-chain length for long-chain services
	// (paper: > 12 microservices).
	ChainLength int
	// ChainPool is the microservice universe per service from which chains
	// are drawn; the pool/length ratio bounds the max cross-trace Jaccard
	// similarity (pool 2× length → max ≈ 0.6-0.7, matching Fig. 3(b)).
	ChainPool int

	Seed int64
}

// DefaultConfig returns a 10-hour, 10-service trace shaped after the
// paper's Figures 3–4.
func DefaultConfig() Config {
	return Config{
		NumServices:     10,
		NumFiles:        6,
		DurationMinutes: 600, // 10 hours
		BaseRatePerMin:  2,
		PeakTimes:       []float64{120, 420},
		PeakGains:       []float64{3, 4},
		PeakWidth:       45,
		ChainLength:     13,
		ChainPool:       26,
		Seed:            1,
	}
}

// Event is one recorded request.
type Event struct {
	Time    float64 // minutes since trace start
	Service int     // service index [0, NumServices)
	File    int     // trace file shard
	Chain   []int   // microservice dependency chain (IDs within the service pool)
}

// Trace is a generated event log.
type Trace struct {
	Config Config
	Events []Event
	// chains[svc][file] is the chain variant service svc uses in that file.
	chains [][][]int
}

// Generate synthesizes a trace. Arrival times follow an inhomogeneous
// Poisson process via thinning; each service has its own random activity
// profile so per-file service mixes differ (Fig. 3(a) heterogeneity).
func Generate(cfg Config) *Trace {
	if cfg.NumServices < 1 {
		cfg.NumServices = 1
	}
	if cfg.NumFiles < 1 {
		cfg.NumFiles = 1
	}
	if cfg.DurationMinutes <= 0 {
		cfg.DurationMinutes = 60
	}
	if cfg.ChainLength < 2 {
		cfg.ChainLength = 2
	}
	if cfg.ChainPool < cfg.ChainLength {
		cfg.ChainPool = cfg.ChainLength
	}
	r := stats.NewRand(stats.SplitSeed(cfg.Seed, "trace/gen"))
	tr := &Trace{Config: cfg}

	// Per-service chain variants per file: ChainLength microservices drawn
	// from the service's pool, resampled per file with partial overlap.
	tr.chains = make([][][]int, cfg.NumServices)
	for s := 0; s < cfg.NumServices; s++ {
		tr.chains[s] = make([][]int, cfg.NumFiles)
		for f := 0; f < cfg.NumFiles; f++ {
			perm := r.Perm(cfg.ChainPool)
			chain := append([]int(nil), perm[:cfg.ChainLength]...)
			sort.Ints(chain)
			tr.chains[s][f] = chain
		}
	}

	// Per-service multiplicative activity: a random phase/amplitude over
	// the peak curve so services peak differently.
	phase := make([]float64, cfg.NumServices)
	amp := make([]float64, cfg.NumServices)
	for s := range phase {
		phase[s] = (r.Float64() - 0.5) * 120 // ±1 h shift
		amp[s] = 0.5 + r.Float64()*1.5
	}

	// Thinning: the intensity upper bound is base·(1+Σgains)·maxAmp.
	maxGain := 0.0
	for _, g := range cfg.PeakGains {
		maxGain += g
	}
	for s := 0; s < cfg.NumServices; s++ {
		lambdaMax := cfg.BaseRatePerMin * (1 + maxGain) * amp[s] * 2
		t := 0.0
		for {
			t += -math.Log(1-r.Float64()) / lambdaMax
			if t >= cfg.DurationMinutes {
				break
			}
			if r.Float64()*lambdaMax <= tr.intensity(s, t, phase[s], amp[s]) {
				f := int(t / cfg.DurationMinutes * float64(cfg.NumFiles))
				if f >= cfg.NumFiles {
					f = cfg.NumFiles - 1
				}
				tr.Events = append(tr.Events, Event{
					Time: t, Service: s, File: f, Chain: tr.chains[s][f],
				})
			}
		}
	}
	sort.Slice(tr.Events, func(i, j int) bool { return tr.Events[i].Time < tr.Events[j].Time })
	return tr
}

// intensity is the arrival rate (events/min) for service s at time t.
func (tr *Trace) intensity(s int, t, phase, amp float64) float64 {
	cfg := tr.Config
	rate := cfg.BaseRatePerMin
	for i, pt := range cfg.PeakTimes {
		gain := 1.0
		if i < len(cfg.PeakGains) {
			gain = cfg.PeakGains[i]
		}
		d := t - (pt + phase)
		rate += cfg.BaseRatePerMin * gain * math.Exp(-d*d/(2*cfg.PeakWidth*cfg.PeakWidth))
	}
	return rate * amp
}

// TemporalHistogram bins all events into intervals of binMinutes — the
// Fig. 4 request-volume curve.
func (tr *Trace) TemporalHistogram(binMinutes float64) []int {
	if binMinutes <= 0 {
		binMinutes = 10
	}
	n := int(math.Ceil(tr.Config.DurationMinutes / binMinutes))
	bins := make([]int, n)
	for _, e := range tr.Events {
		i := int(e.Time / binMinutes)
		if i >= n {
			i = n - 1
		}
		bins[i]++
	}
	return bins
}

// ServiceProfiles returns the per-service temporal rate vectors (events per
// bin), the raw material of the Fig. 3(a) similarity analysis.
func (tr *Trace) ServiceProfiles(binMinutes float64) [][]float64 {
	if binMinutes <= 0 {
		binMinutes = 10
	}
	n := int(math.Ceil(tr.Config.DurationMinutes / binMinutes))
	prof := make([][]float64, tr.Config.NumServices)
	for s := range prof {
		prof[s] = make([]float64, n)
	}
	for _, e := range tr.Events {
		i := int(e.Time / binMinutes)
		if i >= n {
			i = n - 1
		}
		prof[e.Service][i]++
	}
	return prof
}

// ServiceSimilarityMatrix computes pairwise cosine similarities of the
// services' temporal profiles (Fig. 3(a)).
func (tr *Trace) ServiceSimilarityMatrix(binMinutes float64) [][]float64 {
	prof := tr.ServiceProfiles(binMinutes)
	n := len(prof)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = stats.CosineSimilarity(prof[i], prof[j])
		}
	}
	return m
}

// ChainSimilarity computes, for every service, the pairwise Jaccard
// similarity of its dependency chains across trace files (Fig. 3(b)), and
// returns all pairwise values plus the maximum.
func (tr *Trace) ChainSimilarity() (values []float64, max float64) {
	for s := 0; s < tr.Config.NumServices; s++ {
		for f1 := 0; f1 < tr.Config.NumFiles; f1++ {
			for f2 := f1 + 1; f2 < tr.Config.NumFiles; f2++ {
				a := chainSet(tr.chains[s][f1])
				b := chainSet(tr.chains[s][f2])
				v := stats.JaccardSimilarity(a, b)
				values = append(values, v)
				if v > max {
					max = v
				}
			}
		}
	}
	return values, max
}

func chainSet(chain []int) map[int]bool {
	set := make(map[int]bool, len(chain))
	for _, c := range chain {
		set[c] = true
	}
	return set
}

// PeakToMeanRatio summarizes the burstiness of the trace: the maximum bin
// count divided by the mean bin count (Fig. 4's "recurring peaks").
func (tr *Trace) PeakToMeanRatio(binMinutes float64) float64 {
	bins := tr.TemporalHistogram(binMinutes)
	if len(bins) == 0 {
		return 0
	}
	sum, max := 0, 0
	for _, b := range bins {
		sum += b
		if b > max {
			max = b
		}
	}
	mean := float64(sum) / float64(len(bins))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}
