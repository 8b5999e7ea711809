package ilp

import (
	"testing"
	"time"

	"repro/internal/config"
)

// BenchmarkILPSolve times the exact optimizer, the OPT of Figs. 2 and 7, on
// a 4×4 paper instance: model build plus branch and bound, on one worker and
// on GOMAXPROCS (run with -cpu to vary it; at one CPU the two coincide).
func BenchmarkILPSolve(b *testing.B) {
	in := config.Paper(4, 4, 1).MustBuild()
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			m, _ := BuildSoCLBounded(in)
			if _, err := SolveBounded(m, Options{TimeLimit: time.Minute, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}
