package combine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/partition"
	"repro/internal/topology"
)

// memoInstance is a generated instance on n nodes. With split set, every
// link between the two halves of the nodes is cut, so some homes cannot
// reach some instances (stepLatency's 1e12 case). Every other service loses
// its partition groups, so the rule runs with and without them.
func memoInstance(t *testing.T, n, users int, seed int64, split, cloud bool) (*model.Instance, *partition.Result) {
	t.Helper()
	g := topology.RandomGeometric(n, 0.35, topology.DefaultGenConfig(), seed)
	if split {
		links := g.Links() // map order: sorted below so the adjacency is seeded only
		links = slices.DeleteFunc(links, func(l topology.Link) bool { return (l.A < n/2) != (l.B < n/2) })
		slices.SortFunc(links, func(a, b topology.Link) int { return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B)) })
		var err error
		if g, err = topology.Build(g.Nodes(), links); err != nil {
			t.Fatal(err)
		}
	}
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	w, err := msvc.GenerateWorkload(cat, g, msvc.DefaultWorkloadConfig(users), seed)
	if err != nil {
		t.Fatal(err)
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 1e6}
	if cloud {
		cc := model.DefaultCloudConfig()
		in.Cloud = &cc
	}
	part := partition.Build(in, partition.DefaultConfig())
	grouped, bare := 0, 0
	byService := make(map[int]*partition.ServicePartition, len(part.ByService))
	for svc, sp := range part.ByService {
		if svc%2 == 0 && sp != nil && len(sp.Groups) > 0 {
			byService[svc] = sp
			grouped++
		} else {
			bare++
		}
	}
	if grouped == 0 || bare == 0 {
		t.Fatalf("seed %d: %d services with partition groups, %d without; the fixture needs both", seed, grouped, bare)
	}
	part.ByService = byService
	return in, part
}

// randomPlacement puts each (service, node) instance with probability 0.3,
// so some services have no instance at all.
func randomPlacement(in *model.Instance, rng *rand.Rand) model.Placement {
	p := model.NewPlacement(in.M(), in.V())
	for i := 0; i < in.M(); i++ {
		for k := 0; k < in.V(); k++ {
			p.Set(i, k, rng.Float64() < 0.3)
		}
	}
	return p
}

// directZeta is ζ without the memo: the direct rule and stepLatency for
// every relying step.
func directZeta(s *state, svc, node int) float64 {
	loss := 0.0
	for _, ht := range s.relyIdx[s.at(svc, node)] {
		h, t := ht[0], ht[1]
		alt := s.pickReliance(s.in.Workload.Requests[h].Home, svc, node)
		if alt == -1 {
			return math.Inf(1)
		}
		loss += s.stepLatency(h, t, alt) - s.stepLatency(h, t, node)
	}
	return loss
}

// memoCases counts the cases checkMemo met, so the test can require each.
type memoCases struct{ none, cloud, unreachable, grouped int }

// checkMemo holds the per-home memo to the direct rule on s's placement,
// bit for bit: every reliance rel holds, every window's pick and path terms
// for every service and every excluded node, and every live instance's ζ.
func checkMemo(t *testing.T, label string, s *state, seen *memoCases) {
	t.Helper()
	reqs := s.in.Workload.Requests
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	// Under removals alone a kept reliance stays the rule's answer, so rel
	// (initReliance's table, then rehome's windows) is the direct rule.
	for h := range reqs {
		for st, svc := range reqs[h].Chain {
			if got, want := s.rel[h][st], s.pickReliance(reqs[h].Home, svc, -1); got != want {
				t.Fatalf("%s: request %d step %d relies on %d, the rule picks %d", label, h, st, got, want)
			}
		}
	}
	for svc := 0; svc < s.in.M(); svc++ {
		for excl := -1; excl < s.in.V(); excl++ {
			s.memo.open(svc, excl)
			for h := range reqs {
				for st, c := range reqs[h].Chain {
					if c != svc {
						continue
					}
					home := reqs[h].Home
					e := s.decide(home)
					pick := s.pickReliance(home, svc, excl)
					if e.pick != pick {
						t.Fatalf("%s: service %d excluding %d, home %d: memo picks %d, the rule %d", label, svc, excl, home, e.pick, pick)
					}
					switch {
					case pick == -1:
						seen.none++
					case pick == cloudNode:
						seen.cloud++
					case s.groupTab[svc] != nil:
						seen.grouped++
					}
					if excl == -1 || pick == -1 {
						continue
					}
					if e.alt.unreachable || e.own.unreachable {
						seen.unreachable++
					}
					d := s.stepData(h, st)
					if got, want := e.alt.at(d), s.stepLatency(h, st, pick); !same(got, want) {
						t.Fatalf("%s: request %d step %d: memo's alternative latency %v, stepLatency %v", label, h, st, got, want)
					}
					if got, want := e.own.at(d), s.stepLatency(h, st, excl); !same(got, want) {
						t.Fatalf("%s: request %d step %d: memo's own latency %v, stepLatency %v", label, h, st, got, want)
					}
				}
			}
		}
	}
	for svc := 0; svc < s.in.M(); svc++ {
		for _, node := range s.nodesOf(svc) {
			if got, want := s.zeta(svc, node), directZeta(s, svc, node); !same(got, want) {
				t.Fatalf("%s: ζ(%d,%d) = %v, the direct sum %v", label, svc, node, got, want)
			}
		}
	}
}

// TestHomeMemoMatchesDirect holds the per-home memo of zeta and rehome, and
// initReliance's (service, home) table, to the direct connection-update rule
// and stepLatency on generated placements: cloud on and off, a connected and
// a split substrate, services with and without partition groups, and
// instances removed one at a time so rehome's windows run.
func TestHomeMemoMatchesDirect(t *testing.T) {
	var seen memoCases
	for seed := int64(1); seed <= 4; seed++ {
		for _, cloud := range []bool{false, true} {
			for _, split := range []bool{false, true} {
				label := fmt.Sprintf("seed %d cloud %v split %v", seed, cloud, split)
				in, part := memoInstance(t, 12, 60, seed, split, cloud)
				rng := rand.New(rand.NewSource(seed))
				s := newState(in, part, randomPlacement(in, rng), DefaultConfig())
				checkMemo(t, label, s, &seen)
				for round := 0; round < 8; round++ {
					var live []instKey
					for svc := 0; svc < in.M(); svc++ {
						for _, k := range s.nodesOf(svc) {
							live = append(live, instKey{svc, k})
						}
					}
					if len(live) == 0 {
						break
					}
					inst := live[rng.Intn(len(live))]
					s.removeInstance(inst.svc, inst.node)
					checkMemo(t, fmt.Sprintf("%s after removing %v", label, inst), s, &seen)
				}
			}
		}
	}
	if seen.none == 0 || seen.cloud == 0 || seen.unreachable == 0 || seen.grouped == 0 {
		t.Fatalf("the fixtures miss a case: %+v", seen)
	}
}

// TestHomeMemoStampWraps fills every home's entry in a window stamped 1,
// then opens windows for another service with the stamp wrapping around
// 2³²: no window after the wrap may read an entry the first one filled.
func TestHomeMemoStampWraps(t *testing.T) {
	in, part := memoInstance(t, 12, 60, 1, false, true)
	s := newState(in, part, randomPlacement(in, rand.New(rand.NewSource(1))), DefaultConfig())
	differ := func(a, b int) bool {
		for home := 0; home < in.V(); home++ {
			if s.pickReliance(home, a, -1) != s.pickReliance(home, b, -1) {
				return true
			}
		}
		return false
	}
	a, b := 0, 1
	for !differ(a, b) && b < in.M()-1 {
		b++
	}
	if !differ(a, b) {
		t.Fatal("no two services the rule tells apart")
	}
	// The window that checks is the 1st to 4th after the stamp passes
	// 2³²−1; the windows before it decide nothing.
	for skip := 0; skip < 4; skip++ {
		s.memo.gen = 0
		s.memo.open(a, -1) // stamp 1
		for home := 0; home < in.V(); home++ {
			s.decide(home)
		}
		s.memo.gen = math.MaxUint32 - 1
		for range skip + 1 {
			s.memo.open(b, -1)
		}
		for home := 0; home < in.V(); home++ {
			if got, want := s.decide(home).pick, s.pickReliance(home, b, -1); got != want {
				t.Fatalf("stamp %d, home %d: memo picks %d, the rule %d", s.memo.gen, home, got, want)
			}
		}
	}
}
