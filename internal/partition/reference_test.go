package partition

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
)

// referenceService is Algorithm 1 for one service the way it was written
// before the workload index: V(m_i) and every r_k from the O(|U|) Workload
// scans, ξ from a full sort of the virtual-link speeds, union-find and
// candidate election over maps. It shares no table with buildService; Build
// must reproduce it exactly.
func referenceService(in *model.Instance, svc int, chi []float64, cfg Config) (groups []Group, demand map[int]int, xi float64) {
	g := in.Graph
	nodes := in.Workload.NodesRequesting(svc)
	demand = map[int]int{}
	for _, k := range nodes {
		demand[k] = in.Workload.DemandCount(k, svc)
	}

	type link struct {
		a, b  int
		speed float64
	}
	var links []link
	var speeds []float64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			s := g.VirtualSpeed(nodes[i], nodes[j])
			if s > 0 && !math.IsInf(s, 1) {
				links = append(links, link{nodes[i], nodes[j], s})
				speeds = append(speeds, s)
			}
		}
	}
	xi = cfg.Xi
	if xi <= 0 {
		xi = 0 // no links: every node its own group
		if len(speeds) > 0 {
			sort.Float64s(speeds)
			xi = speeds[int(cfg.XiQuantile*float64(len(speeds)-1))]
		}
	}

	pos := map[int]int{}
	for i, k := range nodes {
		pos[k] = i
	}
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, l := range links {
		if l.speed > xi {
			if ra, rb := find(pos[l.a]), find(pos[l.b]); ra != rb {
				parent[ra] = rb
			}
		}
	}
	byRoot := map[int][]int{}
	for i, k := range nodes {
		byRoot[find(i)] = append(byRoot[find(i)], k)
	}
	var roots []int
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		members := byRoot[r]
		sort.Ints(members)
		groups = append(groups, Group{Members: members})
	}

	cost := func(a, b int) float64 {
		if c := g.PathCost(a, b); !math.IsInf(c, 1) {
			return c
		}
		return 1e12
	}
	for s := range groups {
		grp := &groups[s]
		ordered := append([]int(nil), grp.Members...)
		sort.Slice(ordered, func(i, j int) bool { return chi[ordered[i]] < chi[ordered[j]] })
		for k := 0; k < g.N(); k++ {
			if _, isDemand := demand[k]; isDemand || g.Degree(k) <= 2 {
				continue
			}
			for _, a := range ordered {
				viaK, viaA := 0.0, 0.0
				for _, vi := range grp.Members {
					r := float64(demand[vi])
					if vi != k {
						viaK += r * cost(vi, k)
					}
					if vi != a {
						viaA += r * cost(vi, a)
					}
				}
				if viaK-viaA < 0 {
					grp.Candidates = append(grp.Candidates, k)
					break
				}
			}
		}
	}
	return groups, demand, xi
}

// diffReference compares Build(in, cfg) with the scan-built reference:
// the partitioned services, and per service the groups (members and
// candidates, in order), XiUsed and Demand.
func diffReference(in *model.Instance, cfg Config) error {
	res := Build(in, cfg)
	if cfg.XiQuantile <= 0 || cfg.XiQuantile >= 1 {
		cfg.XiQuantile = 0.5
	}
	used := in.Workload.ServicesUsed()
	if len(res.ByService) != len(used) {
		return fmt.Errorf("Build partitioned %d services, the workload uses %d", len(res.ByService), len(used))
	}
	for _, svc := range used {
		sp := res.ByService[svc]
		if sp == nil {
			return fmt.Errorf("service %d: no partition", svc)
		}
		groups, demand, xi := referenceService(in, svc, res.Chi, cfg)
		if math.Float64bits(sp.XiUsed) != math.Float64bits(xi) {
			return fmt.Errorf("service %d: XiUsed %v, reference %v", svc, sp.XiUsed, xi)
		}
		if len(sp.Demand) != in.V() {
			return fmt.Errorf("service %d: Demand has %d entries for %d nodes", svc, len(sp.Demand), in.V())
		}
		for k, d := range sp.Demand {
			if d != demand[k] {
				return fmt.Errorf("service %d: Demand[%d] = %d, reference %d", svc, k, d, demand[k])
			}
		}
		if len(sp.Groups) != len(groups) {
			return fmt.Errorf("service %d: %d groups, reference %d", svc, len(sp.Groups), len(groups))
		}
		for s := range groups {
			if !slices.Equal(sp.Groups[s].Members, groups[s].Members) {
				return fmt.Errorf("service %d group %d: members %v, reference %v", svc, s, sp.Groups[s].Members, groups[s].Members)
			}
			if !slices.Equal(sp.Groups[s].Candidates, groups[s].Candidates) {
				return fmt.Errorf("service %d group %d: candidates %v, reference %v", svc, s, sp.Groups[s].Candidates, groups[s].Candidates)
			}
		}
	}
	return nil
}

// TestBuildMatchesScanReference runs the differential over generated
// instances and every way of choosing ξ; the hand-built fixtures (star,
// disconnected islands, single node, shard sub-instances) call diffReference
// from their own tests.
func TestBuildMatchesScanReference(t *testing.T) {
	cfgs := []Config{DefaultConfig(), {XiQuantile: 0.1}, {XiQuantile: 0.9}, {Xi: 1e-9}, {Xi: 40}}
	for seed := int64(1); seed <= 40; seed++ {
		in := randomInstance(seed)
		for _, cfg := range cfgs {
			if err := diffReference(in, cfg); err != nil {
				t.Fatalf("seed %d cfg %+v: %v", seed, cfg, err)
			}
		}
	}
}

// TestSelectNthMatchesSort pins quantileSpeed's selection against the full
// sort it replaced, duplicates and already-ordered inputs included.
func TestSelectNthMatchesSort(t *testing.T) {
	inputs := [][]float64{{1}, {2, 1}, {1, 1, 1, 1}, {1, 2, 3, 4, 5, 6, 7}, {7, 6, 5, 4, 3, 2, 1}, {3, 1, 3, 1, 3, 1, 2}}
	x := uint64(1)
	for n := 1; n <= 60; n++ {
		v := make([]float64, n)
		for i := range v {
			x = x*6364136223846793005 + 1442695040888963407
			v[i] = float64(x >> 59) // 32 distinct values: plenty of ties
		}
		inputs = append(inputs, v)
	}
	for _, v := range inputs {
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		for n := range v {
			if got := selectNth(append([]float64(nil), v...), n); got != sorted[n] {
				t.Fatalf("selectNth(%v, %d) = %v, sorted order has %v", v, n, got, sorted[n])
			}
		}
	}
}
