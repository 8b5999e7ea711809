package opt

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
)

// Differential tests pinning the parallel engine against the serial
// reference (solveReference, reference_test.go): same status, same optimum, and — across worker counts — the
// identical placement selected by the deterministic tie-break (DESIGN.md §9).

func samePlacement(a, b model.Placement) bool {
	if len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if len(a.X[i]) != len(b.X[i]) {
			return false
		}
		for k := range a.X[i] {
			if a.X[i][k] != b.X[i][k] {
				return false
			}
		}
	}
	return true
}

func TestEngineMatchesNaive(t *testing.T) {
	sizes := [][3]int{{3, 3, 3}, {4, 6, 3}}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			in := testInstance(sz[0], sz[1], sz[2], seed)
			limit := 60 * time.Second
			naive, err := solveReference(in, Options{TimeLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			w1, err := Solve(in, Options{TimeLimit: limit, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			w4, err := Solve(in, Options{TimeLimit: limit, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if naive.Status != w1.Status || naive.Status != w4.Status {
				t.Fatalf("size=%v seed=%d: status naive=%v w1=%v w4=%v",
					sz, seed, naive.Status, w1.Status, w4.Status)
			}
			if naive.Status != Optimal {
				continue
			}
			if math.Abs(naive.StarObjective-w1.StarObjective) > 1e-9 ||
				math.Abs(naive.StarObjective-w4.StarObjective) > 1e-9 {
				t.Fatalf("size=%v seed=%d: objective naive=%v w1=%v w4=%v",
					sz, seed, naive.StarObjective, w1.StarObjective, w4.StarObjective)
			}
			if !samePlacement(w1.Placement, w4.Placement) {
				t.Fatalf("size=%v seed=%d: worker count changed the incumbent placement", sz, seed)
			}
		}
	}
}

// Warm starts must not perturb the engine's optimum (they may only help
// pruning), for any worker count.
func TestEngineWarmStartConsistent(t *testing.T) {
	in := testInstance(4, 6, 3, 2)
	cold, err := Solve(in, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Skipf("instance not solved to optimality: %v", cold.Status)
	}
	warm, err := Solve(in, Options{Workers: 2, WarmStart: &cold.Placement})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || math.Abs(warm.StarObjective-cold.StarObjective) > 1e-9 {
		t.Fatalf("warm start changed the optimum: %v/%v vs %v/%v",
			warm.Status, warm.StarObjective, cold.Status, cold.StarObjective)
	}
}

// Engine must honor the global limits across workers and never claim
// optimality after aborting.
func TestEngineLimitsRespected(t *testing.T) {
	in := testInstance(8, 20, 6, 4)
	res, err := Solve(in, Options{MaxNodes: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 10 {
		t.Fatalf("node limit ignored: %d", res.Nodes)
	}
	if res.Status != Feasible && res.Status != NoSolution {
		t.Fatalf("status = %v after node-limit abort", res.Status)
	}

	tl, err := Solve(in, Options{TimeLimit: time.Millisecond, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Status == Optimal && tl.Elapsed > 500*time.Millisecond {
		t.Fatalf("time limit ignored: %v", tl.Elapsed)
	}
}

// Infeasible instances must be reported identically by both paths.
func TestEngineInfeasibleMatchesNaive(t *testing.T) {
	in := testInstance(4, 5, 3, 2)
	in.Budget = 1
	for name, solve := range map[string]func(*model.Instance, Options) (Result, error){
		"reference": solveReference, "engine": Solve,
	} {
		res, err := solve(in, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Infeasible {
			t.Fatalf("%s: status = %v, want infeasible", name, res.Status)
		}
	}
}
