package serve

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestDelayStreamMatchesFlatReference: the block-backed delay stream of a
// replay-mode run with faults and of a serve-mode run with the lifecycle on
// must equal, bit for bit, the finite latencies of each epoch's evaluation
// collected into one flat slice, and its statistics must equal the stats
// package's on that slice. The serve leg is mostly steady, so most of its
// epochs share a block.
func TestDelayStreamMatchesFlatReference(t *testing.T) {
	g, cat, reqs := testScenario(t, 10, 40, 79)
	legs := []struct {
		name   string
		replay bool
		shape  churn
	}{
		{"replay-faults", true, churn{base: 24, epochs: 30, gap: 3, moves: 1, down: 6, up: 11}},
		{"serve-lifecycle", false, churn{base: 28, epochs: 48, gap: 8, moves: 2, down: 11, up: 14}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := testConfig(g, cat)
			cfg.Replan = leg.replay
			if !leg.replay {
				cfg.Lifecycle = LifecycleConfig{IdleEpochs: 2, WarmPool: 1, ColdStartDelay: 0.25}
			}
			d, err := NewDaemon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ref []float64
			faults := 0
			for _, evs := range leg.shape.stream(cfg, reqs, reqs[0].Home) {
				d.Ingest(evs...)
				rec, err := d.Tick()
				if err != nil {
					t.Fatal(err)
				}
				faults += rec.FaultEvents
				if rec.Requests == 0 {
					continue
				}
				for _, x := range epochLatencies(d, rec.Requests) {
					if !math.IsInf(x, 1) {
						ref = append(ref, x)
					}
				}
			}
			if faults == 0 || len(ref) == 0 {
				t.Fatalf("leg exercised %d faults and %d delays", faults, len(ref))
			}

			res := d.Result()
			s := res.AllDelays
			if s.Len() != len(ref) {
				t.Fatalf("stream holds %d delays, the reference %d", s.Len(), len(ref))
			}
			flat, i := s.Flatten(), 0
			s.Each(func(x float64) {
				if math.Float64bits(x) != math.Float64bits(ref[i]) || math.Float64bits(flat[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("delay %d: iterated %v, flattened %v, reference %v", i, x, flat[i], ref[i])
				}
				i++
			})
			same := func(what string, got, want float64) {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: stream %v, reference %v", what, got, want)
				}
			}
			same("MeanDelay", res.MeanDelay(), stats.Mean(ref))
			same("MaxDelay", res.MaxDelay(), stats.Max(ref))
			same("MedianDelay", res.MedianDelay(), stats.Median(ref))
			same("DelayPercentile(95)", res.DelayPercentile(95), stats.Percentile(ref, 95))

			// A steady epoch shares the block it republished: the serve leg
			// holds fewer distinct blocks than blocks, the replay leg —
			// which evaluates every epoch — one per block.
			distinct := map[*float64]bool{}
			for _, b := range s.blocks {
				if len(b) != cap(b) {
					t.Fatalf("a block of %d delays has capacity %d", len(b), cap(b))
				}
				distinct[&b[0]] = true
			}
			if shared := len(s.blocks) - len(distinct); leg.replay != (shared == 0) {
				t.Fatalf("%d of %d blocks are shared", shared, len(s.blocks))
			}
		})
	}
}

// epochLatencies reads the latencies of the last served epoch's n requests
// one by one through the daemon's view of its evaluation.
func epochLatencies(d *Daemon, n int) []float64 {
	out := make([]float64, n)
	for h := range out {
		out[h] = d.view.Latency(h)
	}
	return out
}

// TestDelayStreamEmpty: a run that served nothing has an empty stream, and
// every statistic over it reads 0.
func TestDelayStreamEmpty(t *testing.T) {
	var r RunResult
	if r.AllDelays.Len() != 0 || len(r.AllDelays.Flatten()) != 0 {
		t.Fatal("the zero stream is not empty")
	}
	for _, x := range []float64{r.MeanDelay(), r.MaxDelay(), r.MedianDelay(), r.DelayPercentile(95)} {
		if x != 0 {
			t.Fatalf("a statistic of the empty stream reads %v", x)
		}
	}
	if err := r.Diff(&RunResult{}); err != nil {
		t.Fatal(err)
	}
}
