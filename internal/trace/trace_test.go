package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateBasicShape(t *testing.T) {
	tr := Generate(DefaultConfig())
	if len(tr.Events) == 0 {
		t.Fatal("no events generated")
	}
	cfg := tr.Config
	for _, e := range tr.Events {
		if e.Time < 0 || e.Time >= cfg.DurationMinutes {
			t.Fatalf("event time %v out of range", e.Time)
		}
		if e.Service < 0 || e.Service >= cfg.NumServices {
			t.Fatalf("service %d out of range", e.Service)
		}
		if e.File < 0 || e.File >= cfg.NumFiles {
			t.Fatalf("file %d out of range", e.File)
		}
		if len(e.Chain) != cfg.ChainLength {
			t.Fatalf("chain length %d, want %d", len(e.Chain), cfg.ChainLength)
		}
	}
	// Events sorted by time.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time < tr.Events[i-1].Time {
			t.Fatal("events not sorted")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed produced different event counts")
	}
	for i := range a.Events {
		if a.Events[i].Time != b.Events[i].Time || a.Events[i].Service != b.Events[i].Service {
			t.Fatal("same seed produced different events")
		}
	}
}

func TestConfigClamping(t *testing.T) {
	cfg := Config{NumServices: 0, NumFiles: 0, DurationMinutes: -5, ChainLength: 0, ChainPool: 0, BaseRatePerMin: 1, Seed: 2}
	tr := Generate(cfg)
	if tr.Config.NumServices != 1 || tr.Config.NumFiles != 1 {
		t.Fatalf("clamping failed: %+v", tr.Config)
	}
	if tr.Config.ChainPool < tr.Config.ChainLength {
		t.Fatal("pool smaller than chain length")
	}
}

func TestTemporalHistogramConservation(t *testing.T) {
	tr := Generate(DefaultConfig())
	bins := tr.TemporalHistogram(10)
	total := 0
	for _, b := range bins {
		total += b
	}
	if total != len(tr.Events) {
		t.Fatalf("histogram total %d != events %d", total, len(tr.Events))
	}
}

func TestTemporalPeaksVisible(t *testing.T) {
	tr := Generate(DefaultConfig())
	ratio := tr.PeakToMeanRatio(10)
	if ratio < 1.5 {
		t.Fatalf("peak-to-mean ratio %v too flat; peaks not reproduced", ratio)
	}
}

func TestServiceSimilarityMatrixProperties(t *testing.T) {
	tr := Generate(DefaultConfig())
	m := tr.ServiceSimilarityMatrix(10)
	n := tr.Config.NumServices
	if len(m) != n {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := 0; i < n; i++ {
		if math.Abs(m[i][i]-1) > 1e-9 {
			t.Fatalf("diagonal m[%d][%d] = %v", i, i, m[i][i])
		}
		for j := 0; j < n; j++ {
			if m[i][j] < 0 || m[i][j] > 1+1e-9 {
				t.Fatalf("similarity out of range: %v", m[i][j])
			}
			if math.Abs(m[i][j]-m[j][i]) > 1e-9 {
				t.Fatal("matrix not symmetric")
			}
		}
	}
	// Heterogeneity (Fig. 3a): not all off-diagonal similarities are ~1.
	low := false
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m[i][j] < 0.97 {
				low = true
			}
		}
	}
	if !low {
		t.Fatal("all services perfectly similar; trace lacks diversity")
	}
}

func TestChainSimilarityBounded(t *testing.T) {
	tr := Generate(DefaultConfig())
	values, max := tr.ChainSimilarity()
	if len(values) == 0 {
		t.Fatal("no similarity values")
	}
	for _, v := range values {
		if v < 0 || v > 1 {
			t.Fatalf("similarity %v out of [0,1]", v)
		}
	}
	// Fig. 3(b): chains across traces are diverse — max well below 1.
	if max > 0.9 {
		t.Fatalf("max chain similarity %v too high; want diversity", max)
	}
	if max < 0.2 {
		t.Fatalf("max chain similarity %v too low; chains should overlap some", max)
	}
}

// Property: event counts scale roughly linearly with the base rate.
func TestRateScalingProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.DurationMinutes = 120
		lo := Generate(cfg)
		cfg.BaseRatePerMin *= 3
		hi := Generate(cfg)
		// 3× the rate should give roughly 3× the events (±50%).
		ratio := float64(len(hi.Events)) / math.Max(1, float64(len(lo.Events)))
		return ratio > 1.5 && ratio < 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: histograms never lose events for any bin width.
func TestHistogramConservationProperty(t *testing.T) {
	tr := Generate(DefaultConfig())
	f := func(width uint8) bool {
		w := float64(width%60) + 1
		bins := tr.TemporalHistogram(w)
		total := 0
		for _, b := range bins {
			total += b
		}
		return total == len(tr.Events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
