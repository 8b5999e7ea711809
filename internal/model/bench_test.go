package model_test

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/config"
	"repro/internal/model"
)

var benchEval *model.Evaluation

// BenchmarkEvaluateRouted scores one JDR placement with the exact DP routing
// every algorithm is scored by (optimal) and with greedy nearest-instance
// routing, one of the routing modes of DESIGN.md §4.
func BenchmarkEvaluateRouted(b *testing.B) {
	in := config.Paper(20, 120, 1).MustBuild()
	p := baselines.JDR(in)
	for _, c := range []struct {
		name string
		mode model.RoutingMode
	}{{"optimal", model.RouteModeOptimal}, {"greedy", model.RouteModeGreedy}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchEval = in.EvaluateRouted(p, c.mode, 0)
			}
		})
	}
}

// BenchmarkRouteOptimal routes one request over the layered chain graph.
func BenchmarkRouteOptimal(b *testing.B) {
	in := config.Paper(20, 40, 1).MustBuild()
	p := baselines.JDR(in)
	req := &in.Workload.Requests[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.RouteOptimal(req, p); err != nil {
			b.Fatal(err)
		}
	}
}
