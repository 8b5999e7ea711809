package partition

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// starInstance builds a 5-node star: center 0 with degree 4 (candidate-
// eligible), leaves 1..4. Two services: svc a demanded at leaves 1,2 (one
// user each); svc b demanded at leaf 3.
func starInstance(t *testing.T) *model.Instance {
	t.Helper()
	g := topology.New(5)
	for i := 0; i < 5; i++ {
		g.AddNode(0, 0, 10, 8)
	}
	for leaf := 1; leaf <= 4; leaf++ {
		if err := g.AddLink(0, leaf, 50); err != nil {
			t.Fatal(err)
		}
	}
	g.Finalize()

	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 100, 1, 1)
	b, _ := cat.Add("b", 100, 1, 1)
	cat.AddFlow([]msvc.ServiceID{a, b})

	w := &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
		{ID: 0, Home: 1, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
		{ID: 1, Home: 2, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
		{ID: 2, Home: 3, Chain: []int{b}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
	}}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
}

func TestBuildStarBasics(t *testing.T) {
	in := starInstance(t)
	res := Build(in, DefaultConfig())
	if err := diffReference(in, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if len(res.ByService) != 2 {
		t.Fatalf("services partitioned = %d", len(res.ByService))
	}
	spA := res.ByService[0]
	if spA == nil {
		t.Fatal("service 0 missing")
	}
	// Demand counts.
	if spA.Demand[1] != 1 || spA.Demand[2] != 1 {
		t.Fatalf("demand = %v", spA.Demand)
	}
	// All demand nodes appear in exactly one group.
	seen := map[int]int{}
	for _, grp := range spA.Groups {
		for _, k := range grp.Members {
			seen[k]++
		}
	}
	if seen[1] != 1 || seen[2] != 1 || len(seen) != 2 {
		t.Fatalf("membership = %v", seen)
	}
}

func TestCandidateElectionOnStarCenter(t *testing.T) {
	in := starInstance(t)
	// Force a single group for service a by using a permissive threshold.
	res := Build(in, Config{Xi: 1e-9})
	spA := res.ByService[0]
	if len(spA.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (leaves 1,2 joined via center)", len(spA.Groups))
	}
	// Center node 0 has degree 4 > 2 and lies between the two demand
	// leaves: serving both from 0 costs 2 transfers where serving from
	// member 1 costs 1 transfer of the other leaf's demand. Δ(0 vs 1) =
	// (r1/𝔹(1,0)+r2/𝔹(2,0)) − r2/𝔹(2,1) = (0.02+0.02) − 0.04 = 0 → not <0,
	// so the center must NOT be elected here.
	for _, c := range spA.Groups[0].Candidates {
		if c == 0 {
			t.Fatal("center elected despite Δ = 0")
		}
	}
	// Leaves 3,4 have degree 1 → never candidates.
	for _, grp := range spA.Groups {
		for _, c := range grp.Candidates {
			if in.Graph.Degree(c) <= 2 {
				t.Fatalf("candidate %d has degree ≤ 2", c)
			}
		}
	}
}

// asymmetric star: center reachable at high speed, leaf-to-leaf paths slow,
// so the center strictly improves Δ.
func TestCandidateElectedWhenBeneficial(t *testing.T) {
	g := topology.New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(0, 0, 10, 8)
	}
	// Demand leaves 1,2,3 hang off center 0 with fast links; there is also
	// a slow "ring" 1-2, 2-3 so leaves connect without the center.
	must := func(a, b int, rate float64) {
		if err := g.AddLink(a, b, rate); err != nil {
			panic(err)
		}
	}
	must(0, 1, 100)
	must(0, 2, 100)
	must(0, 3, 100)
	must(0, 4, 100) // degree filler → ℋ(0) = 5
	must(0, 5, 100)
	must(1, 2, 1) // slow direct leaf links
	must(2, 3, 1)
	g.Finalize()

	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 100, 1, 1)
	cat.AddFlow([]msvc.ServiceID{a})
	w := &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
		{ID: 0, Home: 1, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
		{ID: 1, Home: 2, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
		{ID: 2, Home: 3, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
	}}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}

	res := Build(in, Config{Xi: 1e-9}) // one group
	sp := res.ByService[0]
	if len(sp.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(sp.Groups))
	}
	found := false
	for _, c := range sp.Groups[0].Candidates {
		if c == 0 {
			found = true
		}
	}
	if !found {
		// From center: (1+1+1)/100 per leaf = 0.03. From member 1: leaves
		// 2,3 pay 2/100+... all paths go through 0 anyway at 2 hops → 0.02
		// each = 0.04 > 0.03, so Δ < 0 and 0 must be elected.
		t.Fatalf("beneficial center not elected; candidates = %v", sp.Groups[0].Candidates)
	}
}

func TestHighThresholdSingletons(t *testing.T) {
	in := starInstance(t)
	res := Build(in, Config{Xi: 1e12}) // filter everything
	spA := res.ByService[0]
	if len(spA.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 singletons", len(spA.Groups))
	}
	for _, grp := range spA.Groups {
		if len(grp.Members) != 1 {
			t.Fatalf("group members = %v", grp.Members)
		}
	}
}

func TestGroupOf(t *testing.T) {
	in := starInstance(t)
	res := Build(in, DefaultConfig())
	sp := res.ByService[0]
	for s, grp := range sp.Groups {
		for _, k := range grp.Members {
			if sp.GroupOf(k) != s {
				t.Fatalf("GroupOf(%d) = %d, want %d", k, sp.GroupOf(k), s)
			}
		}
	}
	if sp.GroupOf(4) != -1 {
		t.Fatal("non-member node reported in a group")
	}
}

func TestChiComputed(t *testing.T) {
	in := starInstance(t)
	res := Build(in, DefaultConfig())
	if len(res.Chi) != in.V() {
		t.Fatalf("chi length = %d", len(res.Chi))
	}
	// Center 0 has the direct fast link to everyone → highest χ.
	for k := 1; k < in.V(); k++ {
		if res.Chi[k] > res.Chi[0] {
			t.Fatalf("χ[%d]=%v > χ[0]=%v", k, res.Chi[k], res.Chi[0])
		}
	}
}

func randomInstance(seed int64) *model.Instance {
	g := topology.RandomGeometric(10, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(25), seed)
	if err != nil {
		panic(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
}

// Property: partitioning is a cover of V(m_i) — every demand node appears
// in exactly one group as a member, candidates never carry demand, and
// candidates always satisfy the degree condition.
func TestPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		res := Build(in, DefaultConfig())
		for _, svc := range in.Workload.ServicesUsed() {
			sp := res.ByService[svc]
			if sp == nil {
				return false
			}
			want := in.Workload.NodesRequesting(svc)
			count := map[int]int{}
			for _, grp := range sp.Groups {
				for _, k := range grp.Members {
					count[k]++
				}
				for _, c := range grp.Candidates {
					if sp.Demand[c] > 0 {
						return false // demand node elected as candidate
					}
					if in.Graph.Degree(c) <= 2 {
						return false // Theorem 1 violated
					}
				}
			}
			if len(count) != len(want) {
				return false
			}
			for _, k := range want {
				if count[k] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising ξ never decreases the number of groups (monotone
// refinement).
func TestXiMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed)
		low := Build(in, Config{Xi: 1e-9})
		high := Build(in, Config{Xi: 40})
		for _, svc := range in.Workload.ServicesUsed() {
			if len(high.ByService[svc].Groups) < len(low.ByService[svc].Groups) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// twoIslandInstance builds a substrate of two disconnected 3-node triangles
// with demand on both islands — the degenerate input a sharded pipeline can
// produce when a region's backhaul is cut.
func twoIslandInstance(t *testing.T) *model.Instance {
	t.Helper()
	g := topology.New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(float64(i), 0, 10, 8)
	}
	for _, tri := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
		for i := 0; i < 3; i++ {
			if err := g.AddLink(tri[i], tri[(i+1)%3], 50); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Finalize()

	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 100, 1, 1)
	cat.AddFlow([]msvc.ServiceID{a})
	w := &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
		{ID: 0, Home: 0, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
		{ID: 1, Home: 1, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
		{ID: 2, Home: 4, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
	}}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
}

// Build on a disconnected substrate must still cover every demand node and
// must never group nodes across components (their χ distance is infinite).
func TestBuildDisconnectedSubstrate(t *testing.T) {
	in := twoIslandInstance(t)
	res := Build(in, DefaultConfig())
	if err := diffReference(in, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	sp := res.ByService[0]
	if sp == nil {
		t.Fatal("service 0 missing")
	}
	count := map[int]int{}
	for _, grp := range sp.Groups {
		island := -1
		for _, k := range grp.Members {
			count[k]++
			comp := 0
			if k >= 3 {
				comp = 1
			}
			if island == -1 {
				island = comp
			} else if island != comp {
				t.Fatalf("group %v spans both components", grp.Members)
			}
		}
	}
	for _, k := range []int{0, 1, 4} {
		if count[k] != 1 {
			t.Fatalf("demand node %d appears %d times, want 1 (membership %v)", k, count[k], count)
		}
	}
	if len(count) != 3 {
		t.Fatalf("membership %v covers %d nodes, want 3", count, len(count))
	}
}

// Build on a single-node substrate: one group, one member, no candidates.
func TestBuildSingleNodeRegion(t *testing.T) {
	g := topology.New(1)
	g.AddNode(0, 0, 10, 8)
	g.Finalize()
	cat := msvc.NewCatalog()
	a, _ := cat.Add("a", 100, 1, 1)
	cat.AddFlow([]msvc.ServiceID{a})
	w := &msvc.Workload{Catalog: cat, Requests: []msvc.Request{
		{ID: 0, Home: 0, Chain: []int{a}, DataIn: 1, DataOut: 1, Deadline: math.Inf(1)},
	}}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
	res := Build(in, DefaultConfig())
	if err := diffReference(in, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	sp := res.ByService[0]
	if sp == nil {
		t.Fatal("service 0 missing")
	}
	if len(sp.Groups) != 1 || len(sp.Groups[0].Members) != 1 || sp.Groups[0].Members[0] != 0 {
		t.Fatalf("groups = %+v, want one single-member group on node 0", sp.Groups)
	}
	if len(sp.Groups[0].Candidates) != 0 {
		t.Fatalf("single node elected candidates %v", sp.Groups[0].Candidates)
	}
}

// Property: on every shard sub-instance sliced from a clustered substrate,
// each service's groups exactly partition the shard's demand nodes — the
// per-shard precondition the sharded combine relies on.
func TestBuildPartitionsShardNodesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, regions := topology.Clustered(topology.DefaultClusterConfig(4, 6), seed)
		cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
		wcfg := msvc.DefaultWorkloadConfig(40)
		wcfg.DeadlineSlack = 0
		wcfg.Hotspot = 0
		w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
		if err != nil {
			return false
		}
		in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
		for _, region := range regions {
			var reqs []int
			inRegion := map[int]bool{}
			for _, v := range region {
				inRegion[v] = true
			}
			for h, req := range w.Requests {
				if inRegion[req.Home] {
					reqs = append(reqs, h)
				}
			}
			si, err := model.NewShardInstance(in, region, len(region), reqs, len(reqs))
			if err != nil {
				return false
			}
			res := Build(si.Sub, DefaultConfig())
			if err := diffReference(si.Sub, DefaultConfig()); err != nil {
				t.Log(err)
				return false
			}
			for _, svc := range si.Sub.Workload.ServicesUsed() {
				sp := res.ByService[svc]
				if sp == nil {
					return false
				}
				want := si.Sub.Workload.NodesRequesting(svc)
				count := map[int]int{}
				for _, grp := range sp.Groups {
					for _, k := range grp.Members {
						count[k]++
					}
				}
				if len(count) != len(want) {
					return false
				}
				for _, k := range want {
					if count[k] != 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
