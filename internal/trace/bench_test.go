package trace

import "testing"

var benchTrace *Trace

// BenchmarkGenerate draws a two-hour trace.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig()
	cfg.DurationMinutes = 120
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		benchTrace = Generate(cfg)
	}
}
