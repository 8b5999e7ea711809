package model

import (
	"math"
	"testing"

	"repro/internal/msvc"
	"repro/internal/stats"
	"repro/internal/topology"
)

func TestCloudFallbackServesMissingServices(t *testing.T) {
	in := tinyInstance(t)
	in.Cloud = &CloudConfig{TransferCost: 0.5, Compute: 100}
	p := NewPlacement(2, 4)
	p.Set(0, 0, true) // service b (id 1) nowhere on the edge
	ev := in.Evaluate(p)
	if ev.MissingInstances != 0 {
		t.Fatalf("MissingInstances = %d with cloud fallback", ev.MissingInstances)
	}
	if ev.CloudServed != 1 {
		t.Fatalf("CloudServed = %d, want 1", ev.CloudServed)
	}
	// Request 0 (chain a→b, in 1 GB, out 1 GB, q 2+4 GFLOP):
	// (1+1)·0.5 + 2/100 + 4/100 = 1.06
	want := 1.06
	if math.Abs(ev.Latencies[0]-want) > 1e-9 {
		t.Fatalf("cloud latency = %v, want %v", ev.Latencies[0], want)
	}
	if math.IsInf(ev.Objective, 1) {
		t.Fatal("objective should be finite under cloud fallback")
	}
}

func TestCloudFallbackOffNil(t *testing.T) {
	in := tinyInstance(t)
	p := NewPlacement(2, 4)
	p.Set(0, 0, true)
	ev := in.Evaluate(p)
	if ev.MissingInstances != 1 || ev.CloudServed != 0 {
		t.Fatalf("without cloud: missing=%d cloud=%d", ev.MissingInstances, ev.CloudServed)
	}
}

func TestCloudCompletionTime(t *testing.T) {
	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 1, 10, 1)
	cc := CloudConfig{TransferCost: 2, Compute: 5}
	req := &msvc.Request{Chain: []int{a}, DataIn: 1, DataOut: 3}
	// (1+3)·2 + 10/5 = 10
	if got := cc.CloudCompletionTime(cat, req); math.Abs(got-10) > 1e-12 {
		t.Fatalf("CloudCompletionTime = %v, want 10", got)
	}
}

// Evaluation parity: EvaluateRouted over 150 requests must agree exactly
// with a request-by-request recomputation for every routing mode. In random
// mode this is what catches a generator shared across requests: each
// request's route must come from its own derived stream.
func TestEvaluationMatchesPerRequestRouting(t *testing.T) {
	g := topology.RandomGeometric(10, 0.35, topology.DefaultGenConfig(), 21)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 21)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(150), 21)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
	p := randomPlacement(in, 5)

	for _, mode := range []RoutingMode{RouteModeOptimal, RouteModeGreedy, RouteModeRandom} {
		ev := in.EvaluateRouted(p, mode, 7)
		for h := range in.Workload.Requests {
			req := &in.Workload.Requests[h]
			var want float64
			var err error
			switch mode {
			case RouteModeGreedy:
				_, want, err = in.RouteGreedy(req, p)
			case RouteModeRandom:
				rng := stats.NewRand(7 + int64(h)*0x9e3779b9)
				_, want, err = in.routeRandom(req, p, rng)
			default:
				_, want, err = in.RouteOptimal(req, p)
			}
			if err != nil {
				if !math.IsInf(ev.Latencies[h], 1) {
					t.Fatalf("mode %v req %d: expected +Inf", mode, h)
				}
				continue
			}
			if math.Abs(ev.Latencies[h]-want) > 1e-9 {
				t.Fatalf("mode %v req %d: evaluated %v != routed %v", mode, h, ev.Latencies[h], want)
			}
		}
	}
}

func TestRoutingModeString(t *testing.T) {
	if RouteModeOptimal.String() != "optimal" || RouteModeGreedy.String() != "greedy" ||
		RouteModeRandom.String() != "random" || RoutingMode(99).String() != "?" {
		t.Fatal("RoutingMode.String wrong")
	}
}
