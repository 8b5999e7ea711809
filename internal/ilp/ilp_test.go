package ilp

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/config"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/stats"
	"repro/internal/topology"
)

// The fixtures below write every restriction as rows over the default
// [0, +Inf) bounds, so the engine is also exercised with no finite upper bound
// to flip across.
func TestKnapsack(t *testing.T) {
	// max 10a+13b+7c, weights 3,4,2, cap 6, binary → min negative.
	// Best: b+c = 20 (weight 6). a+c = 17, a alone 10.
	res, err := SolveBounded(rowEncoded(knapsackMIP()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-20)) > 1e-6 {
		t.Fatalf("objective = %v, want -20", res.Objective)
	}
	if res.X[1] < 0.5 || res.X[2] < 0.5 || res.X[0] > 0.5 {
		t.Fatalf("x = %v, want [0 1 1]", res.X)
	}
}

func TestIntegerForcesWorseThanLP(t *testing.T) {
	// max x1+x2 s.t. 2x1+x2 <= 3, x1+2x2 <= 3 → LP opt at (1,1)=2 integral;
	// tweak: 2x1+2x2 <= 3 → LP 1.5, ILP 1.
	p := lp.NewBoundedProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint(map[int]float64{0: 2, 1: 2}, lp.LE, 3)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 1)
	p.AddConstraint(map[int]float64{1: 1}, lp.LE, 1)
	m := &BoundedMIP{Prob: p, Integer: []bool{true, true}}
	res, err := SolveBounded(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-(-1)) > 1e-6 {
		t.Fatalf("objective = %v, want -1", res.Objective)
	}
}

func TestMIPInfeasible(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 2)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 1)
	m := &BoundedMIP{Prob: p, Integer: []bool{true}}
	res, err := SolveBounded(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestMIPIntegerInfeasibleByBranching(t *testing.T) {
	// 0.4 <= x <= 0.6, x integer → LP feasible, no integer point.
	p := lp.NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 0.4)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 0.6)
	m := &BoundedMIP{Prob: p, Integer: []bool{true}}
	res, err := SolveBounded(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 10y, x continuous ≤ 2.5, y binary, x + y ≤ 3.
	// Optimal: y=1, x=2 → -1·2 - 10·1 = -12.
	p := lp.NewBoundedProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -10)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 2.5)
	p.AddConstraint(map[int]float64{1: 1}, lp.LE, 1)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, lp.LE, 3)
	m := &BoundedMIP{Prob: p, Integer: []bool{false, true}}
	res, err := SolveBounded(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-(-12)) > 1e-6 {
		t.Fatalf("objective = %v, want -12", res.Objective)
	}
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 {
		t.Fatalf("x = %v", res.X)
	}
}

func TestNodeLimitReturnsNoSolutionOrFeasible(t *testing.T) {
	p := lp.NewBoundedProblem(6)
	for j := 0; j < 6; j++ {
		p.SetObjective(j, -float64(j+1))
		p.AddConstraint(map[int]float64{j: 1}, lp.LE, 1)
	}
	p.AddConstraint(map[int]float64{0: 3, 1: 5, 2: 7, 3: 11, 4: 13, 5: 17}, lp.LE, 20)
	m := &BoundedMIP{Prob: p, Integer: []bool{true, true, true, true, true, true}}
	res, err := SolveBounded(m, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal && res.Nodes > 1 {
		t.Fatalf("node limit ignored: %d nodes", res.Nodes)
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := SolveBounded(&BoundedMIP{}, Options{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := lp.NewBoundedProblem(2)
	if _, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true}}, Options{}); err == nil {
		t.Fatal("integer-length mismatch accepted")
	}
}

// bruteForceBinary enumerates all binary assignments of a small MIP whose
// variables are all binary (with explicit ≤1 rows) and returns the best
// feasible objective.
func bruteForceBinary(p *lp.BoundedProblem) float64 {
	n := p.NumVars
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			}
		}
		ok := true
		for _, c := range p.Constraints {
			lhs := 0.0
			for j, v := range c.Coeffs {
				lhs += v * x[j]
			}
			switch c.Rel {
			case lp.LE:
				ok = lhs <= c.RHS+1e-9
			case lp.GE:
				ok = lhs >= c.RHS-1e-9
			case lp.EQ:
				ok = math.Abs(lhs-c.RHS) <= 1e-9
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		z := 0.0
		for j := 0; j < n; j++ {
			z += p.Objective[j] * x[j]
		}
		if z < best {
			best = z
		}
	}
	return best
}

// Property: B&B matches brute-force enumeration on random small binary
// programs.
func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 4 + r.Intn(4) // 4..7 binaries
		p := lp.NewBoundedProblem(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, math.Round((r.Float64()*20-10)*4)/4)
			p.AddConstraint(map[int]float64{j: 1}, lp.LE, 1)
		}
		for c := 0; c < 2; c++ {
			row := map[int]float64{}
			for j := 0; j < n; j++ {
				row[j] = math.Round(r.Float64()*5*4) / 4
			}
			p.AddConstraint(row, lp.LE, math.Round(r.Float64()*float64(n)*3*4)/4)
		}
		integer := make([]bool, n)
		for j := range integer {
			integer[j] = true
		}
		res, err := SolveBounded(&BoundedMIP{Prob: p, Integer: integer}, Options{})
		if err != nil {
			return false
		}
		want := bruteForceBinary(p)
		if math.IsInf(want, 1) {
			return res.Status == Infeasible
		}
		return res.Status == Optimal && math.Abs(res.Objective-want) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- SoCL model builder tests ---

func soclInstance(nodes, users int, seed int64) *model.Instance {
	g := topology.RandomGeometric(nodes, 0.5, topology.DefaultGenConfig(), seed)
	cat := msvc.SyntheticCatalog(3, msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0 // keep the tiny ILPs feasible
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		panic(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e5}
}

func TestBuildSoCLShape(t *testing.T) {
	in := soclInstance(3, 4, 1)
	m, vm := BuildSoCLBounded(in)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	wantVars := in.M() * in.V()
	for _, r := range in.Workload.Requests {
		wantVars += len(r.Chain) * in.V()
	}
	if vm.Total != wantVars || m.Prob.NumVars != wantVars {
		t.Fatalf("vars = %d, want %d", m.Prob.NumVars, wantVars)
	}
	// Rows: (9)+(10) per request step, (6) per node, (5) once; binaries are
	// bounds and soclInstance sets no deadlines, so nothing else.
	wantRows := in.V() + 1
	for _, r := range in.Workload.Requests {
		wantRows += len(r.Chain) * (1 + in.V())
	}
	if len(m.Prob.Constraints) != wantRows {
		t.Fatalf("rows = %d, want %d", len(m.Prob.Constraints), wantRows)
	}
	// Column indices must be unique and in range.
	seen := map[int]bool{}
	for i := 0; i < in.M(); i++ {
		for k := 0; k < in.V(); k++ {
			j := vm.XIdx(i, k)
			if j < 0 || j >= wantVars || seen[j] {
				t.Fatalf("bad x index %d", j)
			}
			seen[j] = true
		}
	}
	for h, r := range in.Workload.Requests {
		for tt := range r.Chain {
			for k := 0; k < in.V(); k++ {
				j := vm.YIdx(h, tt, k)
				if j < 0 || j >= wantVars || seen[j] {
					t.Fatalf("bad y index %d", j)
				}
				seen[j] = true
			}
		}
	}
}

func TestSolveSoCLTinyIsFeasibleAndBetterThanNaive(t *testing.T) {
	in := soclInstance(3, 3, 2)
	m, vm := BuildSoCLBounded(in)
	res, err := SolveBounded(m, Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	p := vm.Placement(res.X)
	ev := in.Evaluate(p)
	if ev.MissingInstances != 0 {
		t.Fatalf("ILP solution missing instances: %+v", ev)
	}
	if ev.StorageViolatedAt != -1 || ev.OverBudget {
		t.Fatalf("ILP solution violates hard constraints: %+v", ev)
	}
	// Naive: deploy every used service everywhere. The ILP optimum on the
	// star objective should not exceed the star objective of the naive
	// placement.
	naive := model.NewPlacement(in.M(), in.V())
	for _, s := range in.Workload.ServicesUsed() {
		for k := 0; k < in.V(); k++ {
			naive.Set(s, k, true)
		}
	}
	naiveStar := starObjective(in, naive)
	if res.Objective > naiveStar+1e-6 {
		t.Fatalf("ILP objective %v worse than naive star objective %v", res.Objective, naiveStar)
	}
}

// starObjective computes the Definition-4 objective of a placement with
// optimal per-step star routing (each step independently picks argmin d̃).
func starObjective(in *model.Instance, p model.Placement) float64 {
	latency := 0.0
	for h := range in.Workload.Requests {
		latency += routedLatency(in, p, &in.Workload.Requests[h])
	}
	return in.Lambda*in.DeployCost(p) + (1-in.Lambda)*latency
}

// routedLatency is req's star latency with every step routed to its cheapest
// coefficient over p's instances; +Inf when a step has none.
func routedLatency(in *model.Instance, p model.Placement, req *msvc.Request) float64 {
	sum := 0.0
	for t := range req.Chain {
		best := math.Inf(1)
		for _, k := range p.NodesOf(req.Chain[t]) {
			if c := in.StarCoef(req, t, k); c < best {
				best = c
			}
		}
		sum += best
	}
	return sum
}

// Property: on tiny instances, decoding the MIP solution always yields a
// placement where every requested service has ≥1 instance, and the MIP
// objective equals λ·cost + (1−λ)·(star latencies of its own y choices).
func TestSoCLILPPlacementCoversAllServices(t *testing.T) {
	f := func(seed int64) bool {
		in := soclInstance(3, 2, seed)
		m, vm := BuildSoCLBounded(in)
		res, err := SolveBounded(m, Options{TimeLimit: 20 * time.Second})
		if err != nil || res.Status != Optimal {
			return false
		}
		p := vm.Placement(res.X)
		for _, s := range in.Workload.ServicesUsed() {
			if p.Count(s) == 0 {
				return false
			}
		}
		// Reconstruct the objective from the solution vector.
		z := 0.0
		for j, c := range m.Prob.Objective {
			z += c * res.X[j]
		}
		return math.Abs(z-res.Objective) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSoCLValidatesInstance(t *testing.T) {
	in := soclInstance(4, 4, 6)
	in.Lambda = 2
	if _, _, err := SolveSoCL(in, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// A time limit stops the search after the root (fractional on this
// instance): what it returns is an incumbent or nothing, never a proof and
// never a false infeasibility.
func TestSolveSoCLTimeLimit(t *testing.T) {
	in := config.Paper(8, 20, 1).MustBuild()
	res, p, err := SolveSoCL(in, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Status {
	case Feasible:
		if _, feasible := starRouted(in, p); !feasible {
			t.Fatal("incumbent infeasible")
		}
	case NoSolution:
		if p.X != nil {
			t.Fatal("placement decoded without an incumbent")
		}
	default:
		t.Fatalf("status %v, want feasible or no-solution at the limit", res.Status)
	}
}
