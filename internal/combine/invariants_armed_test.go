//go:build soclinvariants

package combine

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/model"
)

// TestInvariantArmedDifferential is satellite coverage for the runtime
// invariant layer: with soclinvariants on, every Run below executes the
// phase-boundary checks (index coherence, cost recount, reliance index
// rescan, ψ rows, ζ memo) and the evaluator's own (every EvalObjective and
// Eq. 4 verdict against a scratch evaluation) — any divergence panics the
// test — and Run must still match refRun bit for bit. Under the plain build this file does not compile, and
// the same scenarios run (unchecked) via differential_test.go.
func TestInvariantArmedDifferential(t *testing.T) {
	if !invariant.Enabled {
		t.Fatal("build tag soclinvariants must arm the invariant layer")
	}
	for seed := int64(1); seed <= 3; seed++ {
		in1, part1, pre1 := buildInstance(10, 40, seed, 6500)
		in2, part2, pre2 := buildInstance(10, 40, seed, 6500)
		assertRunsIdentical(t, "armed tight budget", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
	}
	// Cloud fallback exercises the sentinel (ErrNoInstance) branches of the
	// evaluator's routes and verdict.
	in1, part1, pre1 := buildInstance(8, 30, 2, 5000)
	in2, part2, pre2 := buildInstance(8, 30, 2, 5000)
	cc := model.DefaultCloudConfig()
	in1.Cloud = &cc
	in2.Cloud = &cc
	assertRunsIdentical(t, "armed cloud fallback", in1, in2, part1, part2, pre1, pre2, DefaultConfig())
}
