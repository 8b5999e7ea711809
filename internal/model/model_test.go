package model

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/msvc"
	"repro/internal/stats"
	"repro/internal/topology"
)

// tinyInstance builds a 4-node line graph with 2 services and 2 requests,
// small enough to verify by hand.
func tinyInstance(t *testing.T) *Instance {
	t.Helper()
	g := topology.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0, 10, 5) // compute 10 GFLOP/s, storage 5
	}
	for i := 0; i < 3; i++ {
		if err := g.AddLink(i, i+1, 10); err != nil { // 0.1 s/GB per hop
			t.Fatal(err)
		}
	}
	g.Finalize()

	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 100, 2, 1) // 0.2 s compute
	b, _ := cat.Add("b", 200, 4, 1) // 0.4 s compute
	cat.AddFlow([]msvc.ServiceID{a, b})

	w := &msvc.Workload{
		Catalog: cat,
		Requests: []msvc.Request{
			{ID: 0, Home: 0, Chain: []int{a, b}, DataIn: 1, DataOut: 1, EdgeData: []float64{2}, Deadline: math.Inf(1)},
			{ID: 1, Home: 3, Chain: []int{a}, DataIn: 1, DataOut: 1, EdgeData: nil, Deadline: math.Inf(1)},
		},
	}
	return &Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 10000}
}

func TestInstanceValidate(t *testing.T) {
	in := tinyInstance(t)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *in
	bad.Lambda = 1.5
	if bad.Validate() == nil {
		t.Fatal("λ>1 accepted")
	}
	bad = *in
	bad.Budget = 0
	if bad.Validate() == nil {
		t.Fatal("zero budget accepted")
	}
	bad = *in
	bad.Graph = nil
	if bad.Validate() == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestPlacementBasics(t *testing.T) {
	p := NewPlacement(2, 3)
	if p.Instances() != 0 {
		t.Fatal("fresh placement not empty")
	}
	p.Set(0, 1, true)
	p.Set(1, 2, true)
	p.Set(0, 2, true)
	if !p.Has(0, 1) || p.Has(0, 0) {
		t.Fatal("Has wrong")
	}
	if p.Count(0) != 2 || p.Count(1) != 1 || p.Instances() != 3 {
		t.Fatal("counts wrong")
	}
	n := p.NodesOf(0)
	if len(n) != 2 || n[0] != 1 || n[1] != 2 {
		t.Fatalf("NodesOf = %v", n)
	}
	q := p.Clone()
	q.Set(0, 1, false)
	if !p.Has(0, 1) {
		t.Fatal("Clone aliases storage")
	}
}

func TestDeployCostAndStorage(t *testing.T) {
	in := tinyInstance(t)
	p := NewPlacement(2, 4)
	p.Set(0, 0, true) // κ=100
	p.Set(1, 0, true) // κ=200
	p.Set(1, 2, true) // κ=200
	if got := in.DeployCost(p); got != 500 {
		t.Fatalf("DeployCost = %v, want 500", got)
	}
	if got := in.StorageUsed(p, 0); got != 2 {
		t.Fatalf("StorageUsed(0) = %v, want 2", got)
	}
	if in.CheckStorage(p) != -1 {
		t.Fatal("storage should be feasible")
	}
	if !in.CheckBudget(p) {
		t.Fatal("budget should be feasible")
	}
}

func TestCompletionTimeHandComputed(t *testing.T) {
	in := tinyInstance(t)
	p := NewPlacement(2, 4)
	p.Set(0, 1, true) // a on node 1
	p.Set(1, 2, true) // b on node 2
	req := &in.Workload.Requests[0]

	// d_in: home 0 → node 1: 1 GB × 0.1 = 0.1
	// compute a: 2/10 = 0.2
	// edge: node1→node2, 2 GB × 0.1 = 0.2
	// compute b: 4/10 = 0.4
	// d_out: node2→home0, min-hop path = 2 hops × 0.1 = 0.2 × 1 GB = 0.2
	want := 0.1 + 0.2 + 0.2 + 0.4 + 0.2
	d, err := in.CompletionTime(req, Assignment{Nodes: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("CompletionTime = %v, want %v", d, want)
	}
}

func TestCompletionTimeErrors(t *testing.T) {
	in := tinyInstance(t)
	req := &in.Workload.Requests[0]
	if _, err := in.CompletionTime(req, Assignment{Nodes: []int{1}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := in.CompletionTime(req, Assignment{Nodes: []int{1, 99}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestRouteOptimalPicksBest(t *testing.T) {
	in := tinyInstance(t)
	p := NewPlacement(2, 4)
	// a available on 0 and 3; b on 1. For request 0 (home 0) best is a@0, b@1.
	p.Set(0, 0, true)
	p.Set(0, 3, true)
	p.Set(1, 1, true)
	req := &in.Workload.Requests[0]
	a, d, err := in.RouteOptimal(req, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes[0] != 0 || a.Nodes[1] != 1 {
		t.Fatalf("route = %v, want [0 1]", a.Nodes)
	}
	// Verify returned cost equals recomputed completion time.
	d2, _ := in.CompletionTime(req, a)
	if math.Abs(d-d2) > 1e-9 {
		t.Fatalf("route cost %v != completion time %v", d, d2)
	}
}

func TestRouteOptimalMissingInstance(t *testing.T) {
	in := tinyInstance(t)
	p := NewPlacement(2, 4)
	p.Set(0, 0, true) // b nowhere
	req := &in.Workload.Requests[0]
	_, _, err := in.RouteOptimal(req, p)
	if err == nil {
		t.Fatal("missing instance not reported")
	}
	var noInst ErrNoInstance
	if e, ok := err.(ErrNoInstance); ok {
		noInst = e
	} else {
		t.Fatalf("wrong error type %T", err)
	}
	if noInst.Service != 1 {
		t.Fatalf("ErrNoInstance.Service = %d", noInst.Service)
	}
}

func TestRouteGreedyFeasible(t *testing.T) {
	in := tinyInstance(t)
	p := NewPlacement(2, 4)
	p.Set(0, 2, true)
	p.Set(1, 3, true)
	req := &in.Workload.Requests[0]
	a, d, err := in.RouteGreedy(req, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes[0] != 2 || a.Nodes[1] != 3 {
		t.Fatalf("greedy route = %v", a.Nodes)
	}
	opt, dOpt, _ := in.RouteOptimal(req, p)
	_ = opt
	if dOpt > d+1e-9 {
		t.Fatalf("optimal %v worse than greedy %v", dOpt, d)
	}
}

func TestEvaluate(t *testing.T) {
	in := tinyInstance(t)
	p := NewPlacement(2, 4)
	p.Set(0, 0, true)
	p.Set(1, 1, true)
	ev := in.Evaluate(p)
	if !ev.Feasible() {
		t.Fatalf("expected feasible: %+v", ev)
	}
	if ev.Cost != 300 {
		t.Fatalf("Cost = %v", ev.Cost)
	}
	wantObj := 0.5*ev.Cost + 0.5*ev.LatencySum
	if math.Abs(ev.Objective-wantObj) > 1e-9 {
		t.Fatalf("Objective = %v, want %v", ev.Objective, wantObj)
	}
	if len(ev.Latencies) != 2 || ev.LatencySum <= 0 {
		t.Fatalf("latencies = %v", ev.Latencies)
	}
}

func TestEvaluateInfeasibleStates(t *testing.T) {
	in := tinyInstance(t)
	// Missing instance for service b.
	p := NewPlacement(2, 4)
	p.Set(0, 0, true)
	ev := in.Evaluate(p)
	if ev.MissingInstances != 1 {
		t.Fatalf("MissingInstances = %d", ev.MissingInstances)
	}
	if ev.Feasible() {
		t.Fatal("should be infeasible")
	}
	if !math.IsInf(ev.Objective, 1) {
		t.Fatalf("objective should be +Inf, got %v", ev.Objective)
	}

	// Over budget.
	in2 := tinyInstance(t)
	in2.Budget = 250
	p2 := NewPlacement(2, 4)
	p2.Set(0, 0, true)
	p2.Set(1, 1, true)
	ev2 := in2.Evaluate(p2)
	if !ev2.OverBudget || ev2.Feasible() {
		t.Fatal("budget violation not detected")
	}

	// Deadline violation.
	in3 := tinyInstance(t)
	in3.Workload.Requests[0].Deadline = 1e-6
	ev3 := in3.Evaluate(p2)
	if ev3.DeadlineViolated != 1 {
		t.Fatalf("DeadlineViolated = %d", ev3.DeadlineViolated)
	}
}

func TestStorageViolationDetected(t *testing.T) {
	g := topology.New(1)
	g.AddNode(0, 0, 10, 1.5) // storage capacity 1.5
	g.Finalize()
	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 10, 1, 1)
	b, _ := cat.Add("b", 10, 1, 1)
	cat.AddFlow([]msvc.ServiceID{a, b})
	in := &Instance{
		Graph: g,
		Workload: &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
			{ID: 0, Home: 0, Chain: []int{a, b}, EdgeData: []float64{1}, Deadline: math.Inf(1)},
		}},
		Lambda: 0.5, Budget: 1000,
	}
	p := NewPlacement(2, 1)
	p.Set(0, 0, true)
	p.Set(1, 0, true) // 2 units > 1.5
	if in.CheckStorage(p) != 0 {
		t.Fatal("storage violation missed")
	}
	ev := in.Evaluate(p)
	if ev.StorageViolatedAt != 0 || ev.Feasible() {
		t.Fatal("evaluation missed storage violation")
	}
}

func TestStarCoefMatchesExactForSingleService(t *testing.T) {
	in := tinyInstance(t)
	req := &in.Workload.Requests[1] // single-service chain at home 3
	for k := 0; k < 4; k++ {
		coef := in.StarCoef(req, 0, k)
		d, err := in.CompletionTime(req, Assignment{Nodes: []int{k}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(coef-d) > 1e-9 {
			t.Fatalf("single-step star coef %v != exact %v at node %d", coef, d, k)
		}
	}
}

// randomInstance builds a random small instance for property testing.
func randomInstance(seed int64, nodes, users int) *Instance {
	g := topology.RandomGeometric(nodes, 0.4, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(users), seed)
	if err != nil {
		panic(err)
	}
	return &Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e9}
}

// randomPlacement deploys each service on 1..3 random nodes.
func randomPlacement(in *Instance, seed int64) Placement {
	r := stats.NewRand(seed)
	p := NewPlacement(in.M(), in.V())
	for i := 0; i < in.M(); i++ {
		n := 1 + r.Intn(3)
		for j := 0; j < n; j++ {
			p.Set(i, r.Intn(in.V()), true)
		}
	}
	return p
}

// Property: RouteOptimal is never worse than RouteGreedy, and both equal
// their recomputed completion times.
func TestRouteOptimalDominatesGreedyProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 10)
		p := randomPlacement(in, seed+1)
		for h := range in.Workload.Requests {
			req := &in.Workload.Requests[h]
			aOpt, dOpt, err1 := in.RouteOptimal(req, p)
			aGre, dGre, err2 := in.RouteGreedy(req, p)
			if err1 != nil || err2 != nil {
				continue
			}
			if dOpt > dGre+1e-9 {
				return false
			}
			c1, _ := in.CompletionTime(req, aOpt)
			c2, _ := in.CompletionTime(req, aGre)
			if math.Abs(c1-dOpt) > 1e-6 || math.Abs(c2-dGre) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: RouteOptimal matches brute-force enumeration on short chains
// with few candidates.
func TestRouteOptimalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 5, 6)
		p := randomPlacement(in, seed+2)
		for h := range in.Workload.Requests {
			req := &in.Workload.Requests[h]
			if len(req.Chain) > 3 {
				continue
			}
			_, dOpt, err := in.RouteOptimal(req, p)
			if err != nil {
				continue
			}
			best := bruteForceRoute(in, req, p)
			if math.Abs(dOpt-best) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func bruteForceRoute(in *Instance, req *msvc.Request, p Placement) float64 {
	layers := make([][]int, len(req.Chain))
	for t, s := range req.Chain {
		layers[t] = p.NodesOf(s)
	}
	best := math.Inf(1)
	assign := make([]int, len(req.Chain))
	var rec func(t int)
	rec = func(t int) {
		if t == len(req.Chain) {
			d, err := in.CompletionTime(req, Assignment{Nodes: assign})
			if err == nil && d < best {
				best = d
			}
			return
		}
		for _, k := range layers[t] {
			assign[t] = k
			rec(t + 1)
		}
	}
	rec(0)
	return best
}

// Property: adding an instance never increases any request's optimal
// latency (monotonicity of the routing relaxation).
func TestMoreInstancesNeverHurtProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 8)
		p := randomPlacement(in, seed+3)
		ev1 := in.Evaluate(p)
		q := p.Clone()
		r := stats.NewRand(seed + 4)
		q.Set(r.Intn(in.M()), r.Intn(in.V()), true)
		ev2 := in.Evaluate(q)
		for h := range ev1.Latencies {
			if ev2.Latencies[h] > ev1.Latencies[h]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestIsNoInstance: the sentinel is recognized bare (the type assertion) and
// wrapped, once or twice (errors.As); any other error, nil included, is not
// it.
func TestIsNoInstance(t *testing.T) {
	bare := ErrNoInstance{Request: 3, Service: 1}
	wrapped := fmt.Errorf("route: %w", bare)
	for _, c := range []struct {
		err  error
		want bool
	}{
		{bare, true},
		{wrapped, true},
		{fmt.Errorf("epoch 4: %w", wrapped), true},
		{errors.Join(errors.New("first"), bare), true},
		{nil, false},
		{errors.New("model: request 3 needs service 1 but no instance is deployed"), false},
		{fmt.Errorf("route: %w", errors.New("disconnected")), false},
	} {
		if got := IsNoInstance(c.err); got != c.want {
			t.Errorf("IsNoInstance(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
