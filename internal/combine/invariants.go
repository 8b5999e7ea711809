package combine

import (
	"math"

	"repro/internal/invariant"
)

// This file wires internal/invariant into the combine phase boundaries. All
// checks are armed by the `soclinvariants` build tag and compile to nothing
// otherwise; with the tag on they recompute combine's own cached structures
// (candidate index, reverse reliance index, ψ rows, ζ memo) from scratch and
// panic on the first divergence. The route cache is the evaluator's, which
// holds every verdict against a scratch evaluation under the same tag.

// checkPhaseInvariants validates the mutable state against ground truth:
//
//  1. PlacementIndex ↔ Placement coherence (epoch-memoized: the O(M·N)
//     scan reruns only when the index mutated since the last verified one);
//  2. the cost accumulator against Eq. 1 recomputed;
//  3. reliance validity: every served step relies on a live instance;
//  4. the reverse reliance index against a full rescan of rel;
//  5. the ψ-row cache against a re-derivation;
//  6. the ζ memo against a fresh ζ.
//
// Check 6 runs last: a fresh ζ walks relyIdx, which check 4 has vouched for.
func (s *state) checkPhaseInvariants(where string) {
	if !invariant.Enabled {
		return
	}
	s.idxWatch.Check(s.idx)
	invariant.Assertf(invariant.AlmostEq(s.cost, s.in.DeployCost(s.place), 1e-6),
		"combine %s: cost accumulator %.9g != recomputed deploy cost %.9g", where, s.cost, s.in.DeployCost(s.place))
	for h := range s.rel {
		req := &s.in.Workload.Requests[h]
		for t, k := range s.rel[h] {
			if k >= 0 {
				invariant.Assertf(s.place.Has(req.Chain[t], k),
					"combine %s: rel[%d][%d] = node %d but service %d has no instance there", where, h, t, k, req.Chain[t])
			}
		}
	}
	s.checkRelianceIndex(where)
	s.checkStarRows(where)
	s.checkZetaMemo(where)
}

// checkStarRows verifies starObjective's ψ-row cache: every clean row must
// equal its from-scratch re-derivation bitwise — a dirty flag missed by some
// rel mutation site would silently skew the serial phase's accept/revert
// decisions otherwise.
func (s *state) checkStarRows(where string) {
	for h := range s.latRow {
		if s.latRowDirty[h] {
			continue
		}
		fresh := s.starRow(h)
		invariant.Assertf(invariant.AlmostEq(s.latRow[h], fresh, 0),
			"combine %s: cached ψ row %d = %v != recomputed %v", where, h, s.latRow[h], fresh)
	}
}

// checkRelianceIndex verifies relyIdx against rel in both directions: every
// indexed (h,t) must rely on exactly that instance with lists ascending
// (ζ sums float terms in list order — order is semantic, not cosmetic), and
// every served step of rel must be indexed exactly once.
func (s *state) checkRelianceIndex(where string) {
	indexed := 0
	for i, list := range s.relyIdx {
		key := instKey{i / s.in.V(), i % s.in.V()}
		prev := [2]int{-1, -1}
		for _, ht := range list {
			h, t := ht[0], ht[1]
			invariant.Assertf(prev[0] < h || (prev[0] == h && prev[1] < t),
				"combine %s: relyIdx[%v] not ascending at (%d,%d)", where, key, h, t)
			prev = ht
			invariant.Assertf(s.in.Workload.Requests[h].Chain[t] == key.svc && s.rel[h][t] == key.node,
				"combine %s: relyIdx[%v] lists (%d,%d) but rel[%d][%d] = %d", where, key, h, t, h, t, s.rel[h][t])
			indexed++
		}
	}
	served := 0
	for h := range s.rel {
		for _, k := range s.rel[h] {
			if k >= 0 {
				served++
			}
		}
	}
	invariant.Assertf(indexed == served,
		"combine %s: relyIdx tracks %d steps, rel serves %d", where, indexed, served)
}

// checkZetaMemo verifies the ζ memo: every set entry of a live instance must
// equal a fresh ζ bitwise. A mutation that changes a service's candidates or
// relying steps without clearing its row would otherwise keep feeding
// Algorithm 4 a stale removal order.
func (s *state) checkZetaMemo(where string) {
	for svc := 0; svc < s.in.M(); svc++ {
		for _, k := range s.nodesOf(svc) {
			memo := s.zetaMemo[s.at(svc, k)]
			if math.IsNaN(memo) {
				continue
			}
			fresh := s.zeta(svc, k)
			invariant.Assertf(math.Float64bits(memo) == math.Float64bits(fresh),
				"combine %s: memoized ζ(%d,%d) = %v != recomputed %v", where, svc, k, memo, fresh)
		}
	}
}
