package baselines

import (
	"testing"

	"repro/internal/config"
	"repro/internal/model"
)

var (
	benchGCOG      GCOGResult
	benchPlacement model.Placement
)

// The three baselines of Fig. 8 on the paper regime. GC-OG's greedy
// descent re-evaluates every candidate removal, so it runs on half the users
// of RP and JDR.
func BenchmarkGCOG(b *testing.B) {
	in := config.Paper(10, 40, 1).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGCOG = GCOG(in)
	}
}

func BenchmarkRP(b *testing.B) {
	in := config.Paper(10, 80, 1).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPlacement = RP(in, int64(i))
	}
}

func BenchmarkJDR(b *testing.B) {
	in := config.Paper(10, 80, 1).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPlacement = JDR(in)
	}
}
