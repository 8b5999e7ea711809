package detrand_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detrand"
)

func TestDetRand(t *testing.T) {
	analysistest.Run(t, "testdata", detrand.Analyzer, "det", "free", "solver", "chaos", "serve", "gen")
}
