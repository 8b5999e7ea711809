package combine

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/model"
)

// This file is the combine-side half of the incremental routing engine.
// Three structures avoid the O(rounds·|U|·L·|V|²) rescans of the naive
// implementation (kept, bit-identical, as the in-package test reference):
//
//   - state.idx, a model.PlacementIndex: cached per-service candidate node
//     lists consumed by pickReliance / RouteOptimal, invalidated per
//     mutation instead of re-scanned per call;
//   - state.relyIdx, the reverse reliance index: for every live instance the
//     ascending list of (h,t) request steps relying on it, so ζ and
//     removeInstance walk exactly the relying steps;
//   - state.routes, the per-request optimal-route cache backing
//     deadlineViolated: a request is re-routed only when its cached optimal
//     route used a removed instance, or an instance of a chain service was
//     added (migration). Removing a node a route avoids cannot change that
//     request's optimum — the candidate set only shrank around a still-
//     available argmin — so cache hits are exact, not approximate.

// cachedRoute is one request's memoized deadline-check outcome.
type cachedRoute struct {
	nodes   []int   // optimal assignment; nil when cloud-served or missing
	lat     float64 // completion time under that assignment
	cloud   bool    // served by the cloud fallback (ErrNoInstance + Cloud)
	missing bool    // ErrNoInstance with no cloud: instant violation
	valid   bool
}

// initIncremental builds the engine's structures over an initialized state
// (place, idx, rel and cost already set).
func (s *state) initIncremental() {
	s.scratch = &model.RouteScratch{}
	s.zetaMemo = make([]float64, s.in.M()*s.in.V())
	for i := range s.zetaMemo {
		s.zetaMemo[i] = math.NaN()
	}
	s.buildRelianceIndex()

	reqs := s.in.Workload.Requests
	s.routes = make([]cachedRoute, len(reqs))
	s.chainReqs = make([][]int, s.in.M())
	// starObjective's ψ-row cache: everything dirty until the first call.
	s.latRow = make([]float64, len(reqs))
	s.latRowDirty = make([]bool, len(reqs))
	for h := range s.latRowDirty {
		s.latRowDirty[h] = true
	}
	for h := range reqs {
		if math.IsInf(reqs[h].Deadline, 1) {
			continue // never deadline-checked, never cached
		}
		s.finite = append(s.finite, h)
		chain := reqs[h].Chain
		for t, svc := range chain {
			if !slices.Contains(chain[:t], svc) { // once per request
				s.chainReqs[svc] = append(s.chainReqs[svc], h)
			}
		}
	}
}

// --- reverse reliance index ---

// buildRelianceIndex derives relyIdx from rel: a counting pass sizes every
// instance's list inside one backing array, a second pass in (h,t) order
// fills them — ascending, the order the naive scan visits relying steps, so
// ζ sums float terms identically. Lists are immutable once published:
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
	for _, ht := range moved {
		h, t := ht[0], ht[1]
		nk := s.pickReliance(h, t, -1)
		s.rel[h][t] = nk
		s.markRowDirty(h)
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

// --- route cache invalidation ---

// invalidateRoutesRemoved marks dirty every cached route that executed some
// chain step on the removed instance (svc, node). Routes avoiding the node
// keep their optimum: removal only shrinks their candidate sets around a
// still-available argmin.
func (s *state) invalidateRoutesRemoved(svc, node int) {
	if s.routes == nil {
		return
	}
	for _, h := range s.chainReqs[svc] {
		e := &s.routes[h]
		if !e.valid || e.nodes == nil {
			continue
		}
		chain := s.in.Workload.Requests[h].Chain
		for t, k := range e.nodes {
			if k == node && chain[t] == svc {
				e.valid = false
				break
			}
		}
	}
}

// invalidateRoutesService marks dirty every cached route whose chain
// contains svc. Required when an instance of svc is *added* (migration
// target): a larger candidate set can strictly improve a route that never
// touched the old node.
func (s *state) invalidateRoutesService(svc int) {
	if s.routes == nil {
		return
	}
	for _, h := range s.chainReqs[svc] {
		s.routes[h].valid = false
	}
}

// --- incremental deadline check ---

// rerouteParallelThreshold is the dirty-request count above which the
// re-route fan-out goes parallel (mirroring model.EvaluateRouted's pattern;
// per-request routing is independent, so results are deterministic).
const rerouteParallelThreshold = 64

// rerouteOne refreshes request h's cache entry under the current placement.
func (s *state) rerouteOne(h int, sc *model.RouteScratch) {
	req := &s.in.Workload.Requests[h]
	a, d, err := s.in.RouteOptimalIndexed(req, s.idx, sc)
	e := &s.routes[h]
	*e = cachedRoute{valid: true}
	switch {
	case err == nil:
		e.nodes, e.lat = a.Nodes, d
	case model.IsNoInstance(err) && s.in.Cloud != nil:
		// Same sentinel discipline as the naive deadlineViolated path: only
		// ErrNoInstance routes to the cloud; anything else counts as missing
		// (infinite latency), keeping the two paths' verdicts identical.
		e.cloud = true
		e.lat = s.in.Cloud.CloudCompletionTime(s.in.Workload.Catalog, req)
	default:
		e.missing = true
		e.lat = math.Inf(1)
	}
}

// violates reports whether request h's valid cache entry breaks Eq. 4.
func (s *state) violates(h int) bool {
	e := &s.routes[h]
	return e.missing || e.lat > s.in.Workload.Requests[h].Deadline+model.FeasTol
}

// reroute refreshes the cache entries of the listed requests under the live
// placement, fanning out over GOMAXPROCS workers when the list is large.
func (s *state) reroute(dirty []int) {
	s.recomputed += len(dirty)
	if len(dirty) < rerouteParallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		for _, h := range dirty {
			s.rerouteOne(h, s.scratch)
		}
		return
	}
	s.idx.Prewarm() // concurrent NodesOf reads must not rebuild
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(dirty) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(dirty); lo += chunk {
		hi := min(lo+chunk, len(dirty))
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			sc := &model.RouteScratch{}
			for _, h := range part {
				s.rerouteOne(h, sc)
			}
		}(dirty[lo:hi])
	}
	wg.Wait()
}

// invalidRoutes lists the finite-deadline requests without a valid entry.
func (s *state) invalidRoutes() []int {
	dirty := s.dirtyBuf[:0]
	for _, h := range s.finite {
		if !s.routes[h].valid {
			dirty = append(dirty, h)
		}
	}
	s.dirtyBuf = dirty
	return dirty
}

// refreshRoutes makes every cache entry valid under the live placement. The
// serial phase calls it before each snapshot, so the cache a roll-back
// restores is exact for the placement it comes back with; after the first
// round it finds work only behind a step that was accepted without a
// deadline check.
func (s *state) refreshRoutes() { s.reroute(s.invalidRoutes()) }

// deadlineViolatedIncremental checks constraint (4) against the cache. A
// valid entry is the request's true optimum under the live placement
// (invariant 3), so one that already misses its deadline settles the verdict
// with nothing re-routed — the common case of a doomed serial step. Failing
// that, only the invalidated requests are re-routed and examined. Either
// way the verdict equals routing every request from scratch.
func (s *state) deadlineViolatedIncremental() bool {
	dirty := s.invalidRoutes()
	s.cacheHits += len(s.finite) - len(dirty)
	for _, h := range s.finite {
		if s.routes[h].valid && s.violates(h) {
			return true
		}
	}
	s.reroute(dirty)
	for _, h := range dirty {
		if s.violates(h) {
			return true
		}
	}
	return false
}
