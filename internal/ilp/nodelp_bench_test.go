package ilp

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// coldNodeLP is what the serial reference pays per node: deep-copy the base
// problem, substitute the node's bounds, solve from scratch. Kept here as the
// benchmark/differential baseline for the engine's warm node LP.
func coldNodeLP(base *lp.BoundedProblem, lower, upper []float64) (lp.Solution, error) {
	p := base.Clone()
	copy(p.Lower, lower)
	copy(p.Upper, upper)
	return lp.SolveBounded(p)
}

// nodeLPFixture returns a SoCL model, a plausible mid-tree node (two
// deployment variables branched) and a warm node-LP closure that solves it
// the way the engine does: restore the root snapshot, re-solve under the
// node's bounds.
func nodeLPFixture(tb testing.TB) (m *BoundedMIP, lower, upper []float64, warm func() (lp.Solution, error)) {
	in := soclInstance(3, 3, 1)
	m, vm := BuildSoCLBounded(in)
	lower = append([]float64(nil), m.Prob.Lower...)
	upper = append([]float64(nil), m.Prob.Upper...)
	upper[vm.XIdx(0, 0)] = 0
	lower[vm.XIdx(1, 1)] = 1
	ws, err := lp.NewWarmSolver(m.Prob)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ws.SolveWithBounds(m.Prob.Lower, m.Prob.Upper); err != nil {
		tb.Fatal(err)
	}
	root := ws.Snapshot()
	return m, lower, upper, func() (lp.Solution, error) {
		ws.Restore(root)
		return ws.SolveWithBounds(lower, upper)
	}
}

func BenchmarkILPNodeLP(b *testing.B) {
	m, lower, upper, warm := nodeLPFixture(b)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coldNodeLP(m.Prob, lower, upper); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := warm(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The warm node LP on pooled solver storage must allocate at least 5x less
// than the clone-and-solve construction of the reference.
func TestNodeLPAllocWin(t *testing.T) {
	m, lower, upper, warm := nodeLPFixture(t)
	// Results must agree before comparing costs.
	want, err := coldNodeLP(m.Prob, lower, upper)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm()
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 1e-6 {
		t.Fatalf("warm result %v/%v != cold result %v/%v", got.Status, got.Objective, want.Status, want.Objective)
	}

	coldAllocs := testing.AllocsPerRun(50, func() {
		if _, err := coldNodeLP(m.Prob, lower, upper); err != nil {
			t.Fatal(err)
		}
	})
	warmAllocs := testing.AllocsPerRun(50, func() {
		if _, err := warm(); err != nil {
			t.Fatal(err)
		}
	})
	if warmAllocs*5 > coldAllocs {
		t.Fatalf("allocs/op: warm %.1f vs cold %.1f — want ≥ 5x reduction", warmAllocs, coldAllocs)
	}
	t.Logf("allocs/op: cold %.1f, warm %.1f (%.1fx)", coldAllocs, warmAllocs, coldAllocs/warmAllocs)
}
