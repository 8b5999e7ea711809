package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/msvc"
	"repro/internal/stats"
	"repro/internal/topology"
)

func testSetup(nodes int, seed int64) (*topology.Graph, *msvc.Catalog) {
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	return g, cat
}

func shortConfig(g *topology.Graph, cat *msvc.Catalog, users int, seed int64) Config {
	cfg := DefaultConfig(g, cat, users, seed)
	cfg.DurationMinutes = 30 // 6 slots
	return cfg
}

func TestRunSoCLBasics(t *testing.T) {
	g, cat := testSetup(8, 1)
	cfg := shortConfig(g, cat, 10, 1)
	res, err := Run(cfg, SoCL{Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "SoCL" {
		t.Fatalf("name = %s", res.Algorithm)
	}
	if len(res.Records) != 6 {
		t.Fatalf("slots = %d, want 6", len(res.Records))
	}
	totalReqs := 0
	for _, rec := range res.Records {
		totalReqs += rec.Requests
		if rec.Unserved() != 0 {
			t.Fatalf("slot %d had %d missing + %d unroutable requests", rec.Epoch, rec.Missing, rec.Unroutable)
		}
		if rec.Requests > 0 && rec.Cost <= 0 {
			t.Fatalf("slot %d with requests has zero cost", rec.Epoch)
		}
	}
	if totalReqs == 0 {
		t.Fatal("no requests generated over the horizon")
	}
	if res.AllDelays.Len() == 0 || res.MeanDelay() <= 0 {
		t.Fatal("no delays recorded")
	}
	if res.MaxDelay() < res.MeanDelay() {
		t.Fatal("max < mean")
	}
	if res.MedianDelay() <= 0 {
		t.Fatal("median not positive")
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	g, cat := testSetup(8, 2)
	for _, algo := range []Algorithm{SoCL{Config: core.DefaultConfig()}, RP{Seed: 1}, JDR{}, GCOG{}} {
		cfg := shortConfig(g, cat, 8, 2)
		cfg.DurationMinutes = 15
		res, err := Run(cfg, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		for _, rec := range res.Records {
			if rec.Requests > 0 && rec.Unserved() > 0 {
				t.Fatalf("%s: unserved requests", algo.Name())
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g, cat := testSetup(8, 3)
	r1, err := Run(shortConfig(g, cat, 10, 3), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(shortConfig(g, cat, 10, 3), JDR{})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := r1.AllDelays.Flatten(), r2.AllDelays.Flatten()
	if len(d1) != len(d2) {
		t.Fatal("same seed produced different runs")
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("delay streams differ")
		}
	}
}

func TestRunErrors(t *testing.T) {
	g, cat := testSetup(6, 4)
	if _, err := Run(Config{}, JDR{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := shortConfig(g, cat, 0, 4)
	if _, err := Run(cfg, JDR{}); err == nil {
		t.Fatal("zero users accepted")
	}
	bad := shortConfig(g, msvc.NewCatalog(), 5, 4)
	if _, err := Run(bad, JDR{}); err == nil {
		t.Fatal("flowless catalog accepted")
	}
}

func TestMobilityMovesUsers(t *testing.T) {
	g, cat := testSetup(10, 5)
	cfg := shortConfig(g, cat, 20, 5)
	cfg.MoveProb = 1.0
	res, err := Run(cfg, JDR{})
	if err != nil {
		t.Fatal(err)
	}
	// Just confirm the run completed with requests from multiple homes:
	// indirectly, delays should vary.
	if d := res.AllDelays.Flatten(); len(d) > 4 && stats.Min(d) == stats.Max(d) {
		t.Fatal("zero delay variance under full mobility")
	}
}

func TestPoissonMeanRoughlyCorrect(t *testing.T) {
	r := stats.NewRand(9)
	n, trials := 0, 4000
	for i := 0; i < trials; i++ {
		n += poisson(r, 2.0)
	}
	mean := float64(n) / float64(trials)
	if math.Abs(mean-2.0) > 0.15 {
		t.Fatalf("poisson mean = %v, want ≈ 2", mean)
	}
	if poisson(r, 0) != 0 {
		t.Fatal("poisson(0) should be 0")
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := stats.NewRand(1)
	if got := uniform(r, 5, 5); got != 5 {
		t.Fatalf("uniform degenerate = %v", got)
	}
	if got := uniform(r, 5, 3); got != 5 {
		t.Fatalf("uniform inverted = %v", got)
	}
}

func TestSoCLBeatsRPOnObjectiveOverTrace(t *testing.T) {
	g, cat := testSetup(10, 7)
	cfgA := shortConfig(g, cat, 15, 7)
	cfgB := shortConfig(g, cat, 15, 7)
	socl, err := Run(cfgA, SoCL{Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(cfgB, RP{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	objSoCL, objRP := 0.0, 0.0
	for _, s := range socl.Records {
		objSoCL += s.Objective
	}
	for _, s := range rp.Records {
		objRP += s.Objective
	}
	if objSoCL > objRP {
		t.Fatalf("SoCL objective %v worse than RP %v over trace", objSoCL, objRP)
	}
}
