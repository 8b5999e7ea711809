package preprov

import (
	"testing"

	"repro/internal/config"
	"repro/internal/partition"
)

var benchResult *Result

func BenchmarkRun(b *testing.B) {
	in := config.Paper(20, 80, 1).MustBuild()
	part := partition.Build(in, partition.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = Run(in, part)
	}
}
