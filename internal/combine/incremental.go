package combine

import (
	"math"
	"runtime"
	"sort"
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

// initIncremental builds the index structures for a freshly initialized
// state (place, rel and cost already set).
func (s *state) initIncremental() {
	s.idx = model.NewPlacementIndex(s.place)
	s.scratch = &model.RouteScratch{}
	s.zetaCache = make(map[int]map[int]float64)
	s.rebuildRelianceIndex()

	reqs := s.in.Workload.Requests
	s.routes = make([]cachedRoute, len(reqs))
	s.chainReqs = make(map[int][]int)
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
		seen := map[int]bool{}
		for _, svc := range reqs[h].Chain {
			if !seen[svc] {
				seen[svc] = true
				s.chainReqs[svc] = append(s.chainReqs[svc], h)
			}
		}
	}
}

// --- reverse reliance index ---

// rebuildRelianceIndex recomputes relyIdx from rel. Iterating h then t keeps
// every per-instance list ascending in (h,t) — the same order the naive scan
// visits relying steps, so ζ sums float terms identically.
func (s *state) rebuildRelianceIndex() {
	s.relyIdx = make(map[instKey][][2]int)
	for h := range s.rel {
		req := &s.in.Workload.Requests[h]
		for t, k := range s.rel[h] {
			if k >= 0 {
				key := instKey{req.Chain[t], k}
				s.relyIdx[key] = append(s.relyIdx[key], [2]int{h, t})
			}
		}
	}
}

// relyAdd inserts (h,t) into the instance's sorted relying list.
func (s *state) relyAdd(svc, node, h, t int) {
	if node < 0 {
		return // cloud or unserved: no instance to index
	}
	key := instKey{svc, node}
	list := s.relyIdx[key]
	at := sort.Search(len(list), func(i int) bool {
		return list[i][0] > h || (list[i][0] == h && list[i][1] >= t)
	})
	list = append(list, [2]int{})
	copy(list[at+1:], list[at:])
	list[at] = [2]int{h, t}
	s.relyIdx[key] = list
}

// relyRemove drops (h,t) from the instance's relying list.
func (s *state) relyRemove(svc, node, h, t int) {
	if node < 0 {
		return
	}
	key := instKey{svc, node}
	list := s.relyIdx[key]
	at := sort.Search(len(list), func(i int) bool {
		return list[i][0] > h || (list[i][0] == h && list[i][1] >= t)
	})
	if at < len(list) && list[at] == [2]int{h, t} {
		list = append(list[:at], list[at+1:]...)
		if len(list) == 0 {
			delete(s.relyIdx, key)
		} else {
			s.relyIdx[key] = list
		}
	}
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

// deadlineViolatedIncremental re-routes only invalidated requests, fanning
// the subset out over GOMAXPROCS workers when large, then checks constraint
// (4) against the cache. The verdict is identical to routing every request
// from scratch.
func (s *state) deadlineViolatedIncremental() bool {
	dirty := s.dirtyBuf[:0]
	for _, h := range s.finite {
		if !s.routes[h].valid {
			dirty = append(dirty, h)
		}
	}
	s.dirtyBuf = dirty
	s.recomputed += len(dirty)
	s.cacheHits += len(s.finite) - len(dirty)

	if len(dirty) >= rerouteParallelThreshold && runtime.GOMAXPROCS(0) > 1 {
		s.idx.Prewarm() // concurrent NodesOf reads must not rebuild
		workers := runtime.GOMAXPROCS(0)
		chunk := (len(dirty) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(dirty) {
				hi = len(dirty)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				sc := &model.RouteScratch{}
				for _, h := range dirty[lo:hi] {
					s.rerouteOne(h, sc)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for _, h := range dirty {
			s.rerouteOne(h, s.scratch)
		}
	}

	for _, h := range s.finite {
		e := &s.routes[h]
		if e.missing || e.lat > s.in.Workload.Requests[h].Deadline+model.FeasTol {
			return true
		}
	}
	return false
}
