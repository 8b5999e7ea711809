package ilp

import (
	"math"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// Differential tests pinning the parallel engine against the serial
// reference (solveBoundedNaive, reference_test.go): same status, same
// objective, and — across worker counts — the identical solution vector
// selected by the deterministic tie-break (DESIGN.md §6).

func sameX(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// checkEngineMatchesReference solves encode(SoCL model) on the reference and
// on the engine at 1 and 4 workers.
func checkEngineMatchesReference(t *testing.T, encode func(*BoundedMIP) *BoundedMIP) {
	t.Helper()
	sizes := [][2]int{{3, 3}, {4, 4}}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			in := soclInstance(sz[0], sz[1], seed)
			m, _ := BuildSoCLBounded(in)
			m = encode(m)
			limit := 60 * time.Second
			naive, err := solveBoundedNaive(m, Options{TimeLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			w1, err := SolveBounded(m, Options{TimeLimit: limit, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			w4, err := SolveBounded(m, Options{TimeLimit: limit, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if naive.Status != w1.Status || naive.Status != w4.Status {
				t.Fatalf("nodes=%d users=%d seed=%d: status naive=%v w1=%v w4=%v",
					sz[0], sz[1], seed, naive.Status, w1.Status, w4.Status)
			}
			if naive.Status != Optimal {
				continue
			}
			// The warm tableau keeps native lower bounds while SolveBounded
			// shifts them, so objectives agree to LP tolerance, not bitwise.
			if math.Abs(naive.Objective-w1.Objective) > 1e-6 || math.Abs(naive.Objective-w4.Objective) > 1e-6 {
				t.Fatalf("nodes=%d users=%d seed=%d: objective naive=%v w1=%v w4=%v",
					sz[0], sz[1], seed, naive.Objective, w1.Objective, w4.Objective)
			}
			if !sameX(w1.X, w4.X) {
				t.Fatalf("nodes=%d users=%d seed=%d: worker count changed the incumbent:\nw1=%v\nw4=%v",
					sz[0], sz[1], seed, w1.X, w4.X)
			}
		}
	}
}

func TestEngineMatchesNaiveBounded(t *testing.T) {
	checkEngineMatchesReference(t, func(m *BoundedMIP) *BoundedMIP { return m })
}

// The same contract on the row-based encoding of the binaries, where the
// warm solver sees slack rows and infinite upper bounds instead of [0,1]
// boxes.
func TestEngineMatchesNaiveRowBased(t *testing.T) {
	checkEngineMatchesReference(t, rowEncoded)
}

// Regression (DESIGN.md §6): on this EShop instance the warm solver's dual
// repair used to ping-pong one column across its interval until maxSteps and
// then cold-start anyway — 15 of 33 nodes, ~1500 wasted steps each, 76 ms
// against the reference's 1.7 ms. Warm-started nodes must cost fewer pivots
// each than the reference's cold ones and no more in total, cold rebuilds
// must stay the exception, and the depth-first dive must stay within sight
// of the reference's node count.
func TestEngineEShopDiveRegression(t *testing.T) {
	g := topology.RandomGeometric(6, 0.35, topology.DefaultGenConfig(), 1)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 1)
	cfg := msvc.DefaultWorkloadConfig(6)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
	m, _ := BuildSoCLBounded(in)
	ref, err := solveBoundedNaive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := SolveBounded(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Status != Optimal || ref.Status != Optimal || math.Abs(eng.Objective-ref.Objective) > 1e-6 {
		t.Fatalf("engine %v/%v vs reference %v/%v", eng.Status, eng.Objective, ref.Status, ref.Objective)
	}
	t.Logf("engine: %d nodes, %d LP iterations; reference: %d nodes, %d LP iterations",
		eng.Nodes, eng.LPIters, ref.Nodes, ref.LPIters)
	if eng.LPIters > ref.LPIters {
		t.Fatalf("engine spent %d LP iterations, reference %d", eng.LPIters, ref.LPIters)
	}
	if eng.LPIters*ref.Nodes >= ref.LPIters*eng.Nodes {
		t.Fatalf("warm node LPs (%d iterations / %d nodes) no cheaper than cold ones (%d / %d)",
			eng.LPIters, eng.Nodes, ref.LPIters, ref.Nodes)
	}
	if eng.Nodes > 16*ref.Nodes {
		t.Fatalf("engine explored %d nodes, reference %d", eng.Nodes, ref.Nodes)
	}
}

// The knapsack fixture has a unique optimum; every path must find it.
func TestEngineKnapsackAllWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := SolveBounded(knapsackMIP(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal || math.Abs(res.Objective-(-20)) > 1e-6 {
			t.Fatalf("workers=%d: status=%v objective=%v", workers, res.Status, res.Objective)
		}
		if res.X[1] < 0.5 || res.X[2] < 0.5 || res.X[0] > 0.5 {
			t.Fatalf("workers=%d: x = %v, want [0 1 1]", workers, res.X)
		}
	}
}

// Engine must honor the global node limit across workers (the shared counter
// may overshoot transiently; the reported count must not).
func TestEngineNodeLimit(t *testing.T) {
	in := soclInstance(4, 5, 1)
	m, _ := BuildSoCLBounded(in)
	res, err := SolveBounded(m, Options{MaxNodes: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 10 {
		t.Fatalf("nodes = %d > limit 10", res.Nodes)
	}
	if res.Status == Optimal && res.Nodes >= 10 {
		t.Fatalf("claimed optimal at the node limit: %+v", res)
	}
}

// Infeasible and integer-infeasible models must report the same status
// through the engine as through the serial reference.
func TestEngineInfeasibleStatuses(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 2)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 1)

	// LP-feasible but integer-infeasible: 2x = 1 with x integer.
	p2 := lp.NewBoundedProblem(1)
	p2.SetObjective(0, 1)
	p2.AddConstraint(map[int]float64{0: 2}, lp.EQ, 1)

	for _, prob := range []*lp.BoundedProblem{p, p2} {
		m := &BoundedMIP{Prob: prob, Integer: []bool{true}}
		ref, err := solveBoundedNaive(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := SolveBounded(m, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Status != Infeasible || eng.Status != Infeasible {
			t.Fatalf("status reference=%v engine=%v, want infeasible", ref.Status, eng.Status)
		}
	}
}
