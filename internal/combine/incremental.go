package combine

import "math"

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

// buildRelianceIndex derives relyIdx from rel: a counting pass sizes every
// instance's list inside one backing array, a second pass in (h,t) order
// fills them — ascending, the order a full scan of rel visits relying steps,
// so ζ sums float terms identically. Lists are immutable once published:
// rehome replaces a list, never edits one, which is what lets a snapshot
// keep the headers alone.
func (s *state) buildRelianceIndex() {
	count := make([]int, s.in.M()*s.in.V())
	for h := range s.rel {
		chain := s.in.Workload.Requests[h].Chain
		for t, k := range s.rel[h] {
			if k >= 0 {
				count[s.at(chain[t], k)]++
			}
		}
	}
	s.relyIdx = make([][][2]int, len(count))
	flat := make([][2]int, len(s.relFlat))
	off := 0
	for i, n := range count {
		if n > 0 {
			s.relyIdx[i] = flat[off : off : off+n]
			off += n
		}
	}
	for h := range s.rel {
		chain := s.in.Workload.Requests[h].Chain
		for t, k := range s.rel[h] {
			if k >= 0 {
				i := s.at(chain[t], k)
				s.relyIdx[i] = append(s.relyIdx[i], [2]int{h, t})
			}
		}
	}
	s.rehomed = make([][][2]int, s.in.V())
}

// rehome moves every step relying on the (already removed) instance
// (svc,node) to its new best instance, keeping rel, the ψ-row dirty flags,
// the reverse index and svc's ζ row (a function of svc's candidates and
// reliances only) coherent. The relying list is walked in ascending (h,t)
// order, so the steps bound for one destination are ascending too and join
// its list in a single merge.
func (s *state) rehome(svc, node int) {
	row := s.zetaMemo[s.at(svc, 0):s.at(svc+1, 0)]
	for k := range row {
		row[k] = math.NaN()
	}
	moved := s.relyIdx[s.at(svc, node)]
	s.relyIdx[s.at(svc, node)] = nil
	s.memo.open(svc, -1)
	reqs := s.in.Workload.Requests
	for _, ht := range moved {
		h, t := ht[0], ht[1]
		nk := s.decide(reqs[h].Home).pick
		s.rel[h][t] = nk
		s.latRowDirty[h] = true
		if nk >= 0 { // cloud or unserved: no instance to index
			s.rehomed[nk] = append(s.rehomed[nk], ht)
		}
	}
	for _, nk := range s.nodesOf(svc) {
		if add := s.rehomed[nk]; len(add) > 0 {
			s.relyIdx[s.at(svc, nk)] = mergeAscending(s.relyIdx[s.at(svc, nk)], add)
			s.rehomed[nk] = add[:0]
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

// mergeAscending returns a fresh list holding a and b, both ascending in
// (h,t) and disjoint, in ascending order.
func mergeAscending(a, b [][2]int) [][2]int {
	out := make([][2]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0][0] < b[0][0] || (a[0][0] == b[0][0] && a[0][1] < b[0][1]) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
