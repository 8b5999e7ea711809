package combine

import (
	"fmt"
	"math"
	"slices"
)

// This file holds combine's own incremental structures. Together with
// state.ev, the run's model.DeltaEvaluator, they avoid the
// O(rounds·|U|·L·|V|²) rescans of a from-scratch implementation (refRun in
// reference_test.go, the bit-identical test reference):
//
//   - state.ev answers the deadline check (AnyLate), re-routing a request
//     only when its cached optimal route used a removed instance or an
//     instance of a chain service was added (migration); its index, state.idx,
//     holds the per-service candidate lists pickReliance reads;
//   - state.relyIdx, the reverse reliance index: for every live instance the
//     ascending list of (h,t) request steps relying on it, so ζ and
//     removeInstance walk exactly the relying steps;
//   - state.zetaMemo and state.latRow: ζ per instance and ψ per request,
//     re-derived only where a mutation reached;
//   - state.memo, the per-home memo: within one zeta or rehome call, the
//     connection-update rule and ζ's path terms are decided once per home
//     node instead of once per relying step.

// initIncremental builds the engine's structures over an initialized state
// (place, ev, idx, rel and cost already set).
func (s *state) initIncremental() {
	s.zetaMemo = make([]float64, s.in.M()*s.in.V())
	for i := range s.zetaMemo {
		s.zetaMemo[i] = math.NaN()
	}
	s.buildRelianceIndex()
	s.memo.stamp = make([]uint32, s.in.V())
	s.memo.entry = make([]homeEntry, s.in.V())

	reqs := s.in.Workload.Requests
	// starObjective's ψ-row cache: everything dirty until the first call.
	s.latRow = make([]float64, len(reqs))
	s.latRowDirty = make([]bool, len(reqs))
	for h := range reqs {
		s.latRowDirty[h] = true
		if !math.IsInf(reqs[h].Deadline, 1) {
			s.deadlines = true
		}
	}
}

// --- reverse reliance index ---

// stepBits is the width of a packed step's chain position: the relying step
// (h, t) is h<<stepBits | t, so ascending integers are ascending (h, t).
const stepBits = 16

// packStep packs request h's chain step t into one relyIdx entry.
func packStep(h, t int) int { return h<<stepBits | t }

// unpackStep is packStep's inverse.
func unpackStep(ht int) (h, t int) { return ht >> stepBits, ht & (1<<stepBits - 1) }

// buildRelianceIndex derives relyIdx from rel: a counting pass sizes every
// instance's list inside one backing array, a second pass in (h,t) order
// fills them — ascending, the order a full scan of rel visits relying steps,
// so ζ sums float terms identically. Each list's capacity is its length, so
// no list can grow into its neighbor's.
func (s *state) buildRelianceIndex() {
	count := make([]int, s.in.M()*s.in.V())
	for h := range s.rel {
		chain := s.in.Workload.Requests[h].Chain
		if len(chain) > 1<<stepBits {
			panic(fmt.Sprintf("combine: request %d has %d chain steps, more than a packed step holds", h, len(chain)))
		}
		for t, k := range s.rel[h] {
			if k >= 0 {
				count[s.at(chain[t], k)]++
			}
		}
	}
	s.relyIdx = carve(count, len(s.relFlat))
	for h := range s.rel {
		chain := s.in.Workload.Requests[h].Chain
		for t, k := range s.rel[h] {
			if k >= 0 {
				i := s.at(chain[t], k)
				s.relyIdx[i] = append(s.relyIdx[i], packStep(h, t))
			}
		}
	}
	s.rehomeEnd = make([]int, s.in.V())
}

// rehome moves every step relying on the (already removed) instance
// (svc,node) to its new best instance, keeping rel, the ψ-row dirty flags,
// the reverse index and svc's ζ row (a function of svc's candidates and
// reliances only) coherent. The moved steps are grouped by destination in
// one scratch list, each group ascending as the relying list was, and each
// group joins its destination's list in a single merge: in place until a
// snapshot may hold the list (snapped), into a fresh list after.
func (s *state) rehome(svc, node int) {
	row := s.zetaMemo[s.at(svc, 0):s.at(svc+1, 0)]
	for k := range row {
		row[k] = math.NaN()
	}
	moved := s.relyIdx[s.at(svc, node)]
	s.relyIdx[s.at(svc, node)] = nil
	s.memo.open(svc, -1)
	reqs := s.in.Workload.Requests
	end := s.rehomeEnd // steps bound per node, then each group's end
	for _, ht := range moved {
		h, t := unpackStep(ht)
		nk := s.decide(reqs[h].Home).pick
		s.rel[h][t] = nk
		s.latRowDirty[h] = true
		if nk >= 0 { // cloud or unserved: no instance to index
			end[nk]++
		}
	}
	nodes := s.nodesOf(svc)
	n := 0
	for _, nk := range nodes {
		n += end[nk]
		end[nk] = n
	}
	grouped := slices.Grow(s.rehomed[:0], n)[:n]
	for j := len(moved) - 1; j >= 0; j-- {
		h, t := unpackStep(moved[j])
		if nk := s.rel[h][t]; nk >= 0 {
			end[nk]--
			grouped[end[nk]] = moved[j]
		}
	}
	s.rehomed = grouped
	for i, nk := range nodes {
		lo, hi := end[nk], n // end[nk] is now the group's start
		if i+1 < len(nodes) {
			hi = end[nodes[i+1]]
		}
		end[nk] = 0
		if add := grouped[lo:hi]; len(add) > 0 {
			dst := &s.relyIdx[s.at(svc, nk)]
			if s.snapped {
				*dst = mergeAscending(nil, *dst, add)
			} else {
				*dst = mergeInto(*dst, add)
			}
		}
	}
}

// --- per-home memo ---

// homeMemo is a window of connection-update decisions: for one service and
// one excluded node, what pickReliance answers per home node — and, when a
// node is excluded (the window ζ opens for the instance it scores), the
// path terms of serving from that answer and from the excluded node. Both
// read a step only through its home and service, and a window lives inside
// one zeta or rehome call, during which nothing moves the placement, so
// every step homed on a node reads its home's entry bit for bit. A memo
// that outlived the call would gain nothing: every rehome of a service
// follows a placement change of that service, and ζ is recomputed only
// after one (zetaMemo).
type homeMemo struct {
	gen       uint32      // the open window; an entry is filled iff stamp == gen
	svc, excl int         // the open window's service and excluded node
	stamp     []uint32    // per home node
	entry     []homeEntry // per home node
}

// homeEntry is one home node's decision within a window.
type homeEntry struct {
	pick     int      // pickReliance(home, svc, excl)
	alt, own pathTerm // serving from pick and from excl (excl ≥ 0, pick ≠ -1)
}

// open starts a window for service svc excluding node excl (-1 for none).
// Every entry filled before reads as unset. When the 32-bit stamp wraps,
// the stamps are cleared, so no old entry can alias a new window.
func (m *homeMemo) open(svc, excl int) {
	m.gen++
	if m.gen == 0 {
		clear(m.stamp)
		m.gen = 1
	}
	m.svc, m.excl = svc, excl
}

// decide returns home's entry in the open window, deciding it on the
// home's first step.
func (s *state) decide(home int) *homeEntry {
	m := &s.memo
	e := &m.entry[home]
	if m.stamp[home] == m.gen {
		return e
	}
	m.stamp[home] = m.gen
	e.pick = s.pickReliance(home, m.svc, m.excl)
	if m.excl >= 0 && e.pick != -1 {
		e.alt, e.own = s.term(home, m.svc, e.pick), s.term(home, m.svc, m.excl)
	}
	return e
}

// mergeAscending appends to out the union of a and b, both ascending and
// disjoint, in ascending order.
func mergeAscending(out, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// mergeInto merges b into a, both ascending and disjoint: from the back into
// a's spare capacity when it has room, else into a fresh list of twice a's
// capacity. a's elements may move, so no one else may hold a.
func mergeInto(a, b []int) []int {
	n := len(a) + len(b)
	if n > cap(a) {
		return mergeAscending(make([]int, 0, max(2*cap(a), n)), a, b)
	}
	i, j := len(a)-1, len(b)-1
	a = a[:n]
	for w := n - 1; j >= 0; w-- {
		if i >= 0 && a[i] > b[j] {
			a[w], i = a[i], i-1
		} else {
			a[w], j = b[j], j-1
		}
	}
	return a
}
