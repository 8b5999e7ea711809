package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/msvc"
)

// This file is the reusable delta-evaluation engine: the generalization of
// the PR-1 combine machinery (PlacementIndex + per-request route cache) to
// every consumer of the exact evaluator. A DeltaEvaluator binds to one
// Instance and one Placement and answers Eval() — the exact Eq. 1–6
// evaluation, bit-identical to Instance.EvaluateRouted — while re-routing
// only the requests whose candidate sets a mutation could have changed:
//
//   - removing an instance (optimal/greedy routing) invalidates exactly the
//     cached routes that executed a chain step on it: shrinking a candidate
//     set around a still-available argmin cannot change that argmin, and the
//     DP/greedy tie-breaks (first minimum in ascending node order) are
//     stable under deletion of non-selected candidates;
//   - adding an instance invalidates every request whose chain contains the
//     service: a grown candidate set can strictly improve routes that never
//     touched the old nodes;
//   - random routing invalidates on any mutation of a chain service, because
//     the per-request stream indexes into the candidate list by position.
//
// The scalar fields of the returned Evaluation are *recomputed* per Eval —
// LatencySum as a fresh index-order pass over the latency vector, Cost via
// DeployCost (once an index epoch), the constraint flags via
// CheckStorage/CheckBudget — so they are bitwise equal to a from-scratch
// evaluation, not approximately equal. Only routing, the dominant cost, is
// cached.
//
// Staleness is epoch-checked: the evaluator owns its PlacementIndex, stamps
// every mutation it performs, and panics if the index's Epoch moved without
// it — a placement write that bypassed Apply/Revert/AdvanceTo would silently
// poison the cache otherwise.
//
// Search loops that only rank candidates need not mutate at all: ProbeRemoval
// and ProbeAdd (delta_probeadd.go) answer "what if this instance were gone /
// these were added" from per-request memos. AnyLate answers a single Eq. 4
// question, "is some request late?", and stops at the first cached answer.
//
// The workload may change too, through one method: EditRequests applies a
// batch of departures, moves and arrivals to the bound list and keeps the
// cached route of every survivor that did not move (see there). That is what
// lets a serving daemon keep one evaluator bound across admissions and pay
// only for the requests that changed.
//
// Every path that invalidates an entry records its index on the pending
// list, so a refresh re-routes what was recorded and scans nothing. The
// deploy cost is cached under the index epoch, and the service → requests
// index (chainReqs) is rebuilt after departures only when something next
// reads it.

// deltaRoute is one request's cached routing outcome under the bound
// placement. The class flags mirror EvaluateRouted's routeOne: exactly one
// of {routed (nodes/lat), cloud, missing} applies; valid=false means the
// entry must be re-routed before the next Eval reads it.
type deltaRoute struct {
	nodes   []int   // optimal/greedy/random assignment; nil when cloud, missing, or disconnected
	lat     float64 // completion time (may be +Inf for disconnected substrates)
	gen     uint64  // evalGen at last re-route; lets Revert spot probe-era entries
	cloud   bool    // served by the cloud fallback (ErrNoInstance + Cloud)
	missing bool    // ErrNoInstance with no cloud
	valid   bool
	queued  bool // on the pending list; kept by every rewrite until refresh takes it off
}

// routeSave is one saved cache entry inside a Delta undo record.
type routeSave struct {
	h int
	e deltaRoute
}

// affectedAlt pairs a request with its memoized probe latency during a
// ProbeRemoval merge-walk.
type affectedAlt struct {
	h   int
	lat float64
}

// excludeLister adapts the placement index to a counterfactual candidate
// view with one instance hidden, preserving ascending node order so the
// routing tie-breaks match an index with the bit actually cleared.
type excludeLister struct {
	ix        *PlacementIndex
	svc, node int
	buf       []int
}

func (x *excludeLister) NodesOf(s int) []int {
	ns := x.ix.NodesOf(s)
	if s != x.svc {
		return ns
	}
	x.buf = x.buf[:0]
	for _, k := range ns {
		if k != x.node {
			x.buf = append(x.buf, k)
		}
	}
	return x.buf
}

// Delta is the undo record of one Apply: reverting it restores both the
// placement bit and the cache entries the mutation invalidated, so an
// Apply → Eval → Revert probe leaves the evaluator exactly as it was — the
// pattern GC-OG's candidate search runs thousands of times per round.
// Outstanding deltas must be reverted in LIFO order, and before the next
// EditRequests, AdvanceTo or Rebind.
//
// A removal under optimal/greedy routing saves the entries it invalidates:
// few, and usually re-routed before the Revert. An addition (and any
// mutation under random routing) invalidates every valid entry over the
// service, so it records only their indices: an entry nothing re-routed
// since still holds its pre-Apply content and is simply re-validated.
type Delta struct {
	svc, node int
	val       bool
	noop      bool   // Apply found the bit already at val; nothing to undo
	gen       uint64 // evalGen at Apply; later-stamped entries were routed since
	undoGen   uint64 // undoGen at Apply; Revert refuses a stale one
	saved     []routeSave
	flipped   []int // requests an addition (or random-mode) Apply invalidated, ascending
	reverted  bool
}

// DeltaEvaluator scores a sequence of adjacent placements incrementally.
// Not safe for concurrent use.
type DeltaEvaluator struct {
	in   *Instance
	ix   *PlacementIndex
	mode RoutingMode
	seed int64

	epoch     uint64 // expected index epoch; any drift fails loudly
	cold      *ColdStartModel
	coldEpoch uint64       // expected cold-set epoch (cold != nil only)
	evalGen   uint64       // bumped per refresh; stamps recomputed entries
	routes    []deltaRoute // per-request cache
	// chainReqs maps a service to the requests whose chain contains it,
	// ascending; after departures it is stale (chainStale) until chains
	// next reads it.
	chainReqs  [][]int
	chainStale bool

	// pend lists the entries invalidated since the last refresh, each once
	// (deltaRoute.queued), and holds every invalid entry; an entry a Revert
	// re-validated stays listed and refresh skips it.
	pend []int

	// The deploy cost of the bound placement, cached under the index epoch
	// it was computed at: a workload edit cannot move it.
	cost      float64
	costEpoch uint64
	costOK    bool

	// Workload edits (EditRequests) counted, for EvalStamp.
	reqGen uint64
	// undoGen counts what stales an undo record: a workload edit (its saved
	// routes index the old list), AdvanceTo and Rebind (its Revert would set
	// a bit of a placement the caller replaced). Apply stamps it into the
	// Delta and Revert panics when the stamp is stale.
	undoGen uint64

	scratch  *RouteScratch
	dirtyBuf []int
	// Undo buffers handed back by Revert, for the next Apply to reuse.
	spareSaved   [][]routeSave
	spareFlipped [][]int

	// Removal-probe memo (ProbeRemoval): altLat[altOff[h]+t] is request h's
	// exact completion time if the instance its route uses at chain step t
	// were removed, altSet the same position's filled flag. A row is valid
	// while chainGen[h] — bumped on every placement mutation of a service in
	// h's chain while some probe memo exists (a memo is born stale, so none
	// need be tracked before, and chainGen is allocated with the first) —
	// matches altGen[h]; entries fill lazily. This is what lets GC-OG's
	// candidate sweep skip re-routing for every request whose chain the
	// previous round's accepted move did not touch.
	chainGen []uint64
	altGen   []uint64
	altOff   []int // request h's row is [altOff[h], altOff[h+1])
	altLat   []float64
	altSet   []bool
	affBuf   []affectedAlt
	exclude  excludeLister
	kappa    []float64 // per-service deploy cost, mirrors Catalog lookups

	addProbe addProbeState // ProbeAdd's memoized DP rows and scratch

	// The last evaluation Eval published and the last summary Summary or
	// Eval computed, each with the stamp it was built under. Nothing else an
	// Evaluation reads can move while the stamp holds (checkEpoch pins the
	// cold set), so a call whose stamp still matches answers from the cache.
	pub      *Evaluation
	pubStamp EvalStamp
	sum      EvalSummary
	sumStamp EvalStamp
	sumOK    bool
	// fin holds the finite latencies in request order, written by the same
	// pass as sum and valid under sumStamp.
	fin []float64

	// Telemetry: cache hits vs re-routes across Eval calls.
	Hits, Recomputed int
}

// EvalStamp is what an evaluation of a DeltaEvaluator was built under: the
// index epoch, the request generation and the bits of Lambda and Budget.
// While an evaluator's Stamp holds, its Eval, Summary and reads stay what
// they were.
type EvalStamp struct{ epoch, reqGen, lambda, budget uint64 }

// NewDeltaEvaluator binds an evaluator to in and p under the given routing
// mode (seed matters only for RouteModeRandom, with the same per-request
// stream derivation as EvaluateRouted). The placement is aliased: all
// further mutations must go through Apply/Revert/AdvanceTo or Rebind.
// Lambda and Budget may change on in between Evals — objective and
// constraint checks are recomputed fresh — but the graph must not, and the
// workload only through EditRequests.
func NewDeltaEvaluator(in *Instance, p Placement, mode RoutingMode, seed int64) *DeltaEvaluator {
	d := &DeltaEvaluator{
		in:      in,
		ix:      NewPlacementIndex(p),
		mode:    mode,
		seed:    seed,
		scratch: &RouteScratch{},
	}
	d.epoch = d.ix.Epoch()
	d.cold = in.ColdStart
	if d.cold != nil {
		d.coldEpoch = d.cold.Epoch()
	}
	d.routes = make([]deltaRoute, len(in.Workload.Requests))
	d.pend = make([]int, 0, len(in.Workload.Requests))
	d.chainReqs = make([][]int, in.M())
	d.kappa = make([]float64, in.M())
	for i := range d.kappa {
		d.kappa[i] = in.Workload.Catalog.Service(i).DeployCost
	}
	d.indexChains()
	for h := range in.Workload.Requests {
		d.queue(h)
	}
	return d
}

// indexChains fills chainReqs from one counted backing array. Each service's
// list is capped at its own span, so an admission that outgrows it
// reallocates that list alone instead of running into the next. A list's
// last entry, or in the counting pass last, says whether the request at hand
// is filed under the service already.
func (d *DeltaEvaluator) indexChains() {
	reqs := d.in.Workload.Requests
	count := make([]int, len(d.chainReqs))
	last := make([]int, len(d.chainReqs)) // the last request counted, plus one
	total := 0
	for h := range reqs {
		for _, svc := range reqs[h].Chain {
			if last[svc] != h+1 {
				last[svc] = h + 1
				count[svc]++
				total++
			}
		}
	}
	all := make([]int, total)
	off := 0
	for svc, n := range count {
		d.chainReqs[svc] = all[off : off : off+n]
		off += n
	}
	for h := range reqs {
		for _, svc := range reqs[h].Chain {
			if c := d.chainReqs[svc]; len(c) == 0 || c[len(c)-1] != h {
				d.chainReqs[svc] = append(c, h)
			}
		}
	}
}

// indexChain files request h, the last one indexed so far, under each
// distinct service of its chain: chainReqs stays ascending in h.
func (d *DeltaEvaluator) indexChain(h int) {
	chain := d.in.Workload.Requests[h].Chain
	for t, svc := range chain {
		if !slices.Contains(chain[:t], svc) {
			d.chainReqs[svc] = append(d.chainReqs[svc], h)
		}
	}
}

// chains returns chainReqs, rebuilt first when departures left it stale.
func (d *DeltaEvaluator) chains() [][]int {
	if d.chainStale {
		for svc := range d.chainReqs {
			d.chainReqs[svc] = d.chainReqs[svc][:0]
		}
		for h := range d.in.Workload.Requests {
			d.indexChain(h)
		}
		d.chainStale = false
	}
	return d.chainReqs
}

// queue invalidates request h's entry and records it on the pending list.
func (d *DeltaEvaluator) queue(h int) {
	e := &d.routes[h]
	e.valid = false
	if !e.queued {
		e.queued = true
		d.pend = append(d.pend, h)
	}
}

// reset drops request h's entry, whose request changed place or index.
func (d *DeltaEvaluator) reset(h int) {
	e := &d.routes[h]
	*e = deltaRoute{queued: e.queued}
	d.queue(h)
}

// sameStorage reports whether two slices are the same elements in memory.
func sameStorage[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameRequest is BoundTo's rule for a foreign workload: b is the request a
// was routed as. The ID alone never decides it — a replayed script may re-use
// the ID of a departed request for a different one — and nothing here reads a
// chain's contents: a request whose chain or data sizes change is a new
// admission with storage of its own.
func sameRequest(a, b *msvc.Request) bool {
	return a.ID == b.ID && a.Home == b.Home &&
		sameStorage(a.Chain, b.Chain) && sameStorage(a.EdgeData, b.EdgeData) &&
		math.Float64bits(a.DataIn) == math.Float64bits(b.DataIn) &&
		math.Float64bits(a.DataOut) == math.Float64bits(b.DataOut)
}

// Workload is the workload the evaluator is bound to. EditRequests edits its
// request list in place, so an instance that carries it carries the
// evaluator's own requests — which BoundTo recognizes without a comparison.
func (d *DeltaEvaluator) Workload() *msvc.Workload { return d.in.Workload }

// EditRequests applies one batch of admission edits — a serving daemon's
// departures, moves and arrivals — to the bound workload, in place of a
// re-bind. The bound request list is edited in place, so an evaluator that is
// edited must be bound over a workload of its own. The batch is described
// against the list as the evaluator holds it:
//
//   - gone lists, ascending, the indices of the requests that departed;
//   - the survivors keep their order, and reqs — the caller's edited list —
//     starts with them; reqs[h] for h in moved is a survivor whose Home
//     changed (an index past the survivors names an arrival and is ignored);
//   - the rest of reqs are arrivals, appended in order.
//
// Every departure compacts the cache in one pass and every survivor keeps its
// route, except a moved one and — under RouteModeRandom, whose streams derive
// from a request's index — every one from the first departure on. The pending
// list is re-indexed with the cache; chainReqs is left stale after
// departures, for the next read to rebuild. An edit the batch does not
// describe is not seen: soclinvariants builds check the edited
// list against reqs. Probe memos are dropped, and a Delta taken before the
// call can no longer be reverted (its saved routes index the old list). An
// empty batch changes nothing.
func (d *DeltaEvaluator) EditRequests(reqs []msvc.Request, gone, moved []int) {
	d.checkEpoch("EditRequests")
	w := d.compact(gone)
	if len(reqs) < w {
		panic(fmt.Sprintf("model: DeltaEvaluator.EditRequests with %d requests, fewer than the %d survivors", len(reqs), w))
	}
	if len(gone) == 0 && len(reqs) == w && len(moved) == 0 {
		return
	}
	own := d.in.Workload.Requests
	for _, h := range moved {
		if h < w {
			own[h] = reqs[h]
			d.reset(h)
		}
	}
	if d.mode == RouteModeRandom && len(gone) > 0 {
		for h := gone[0]; h < w; h++ {
			d.reset(h)
		}
	}
	own = append(own, reqs[w:]...)
	d.in.Workload.Requests = own
	d.routes = append(d.routes, make([]deltaRoute, len(own)-w)...)
	for h := w; h < len(own); h++ {
		if !d.chainStale {
			d.indexChain(h)
		}
		d.queue(h)
	}
	// With the probe memos dropped, chainGen's values mean nothing until a
	// memo is built against them: only its length must follow the list.
	if n := len(own); n <= cap(d.chainGen) {
		d.chainGen = d.chainGen[:n]
	} else if d.chainGen != nil {
		d.chainGen = append(d.chainGen, make([]uint64, n-len(d.chainGen))...)
	}
	d.altGen, d.altOff, d.altLat, d.altSet = nil, nil, nil, nil
	d.dropAddProbe()
	d.reqGen++
	d.undoGen++
	d.selfCheckEdit(reqs)
}

// compact removes the requests at the ascending indices gone from the bound
// list and the route cache, re-indexes the pending list, marks chainReqs
// stale, and returns the number of survivors.
func (d *DeltaEvaluator) compact(gone []int) int {
	reqs := d.in.Workload.Requests
	if len(gone) == 0 {
		return len(reqs)
	}
	for j, r := range gone {
		if r < 0 || r >= len(reqs) || (j > 0 && r <= gone[j-1]) {
			panic(fmt.Sprintf("model: DeltaEvaluator.EditRequests: departures %v are not ascending indices of the %d requests", gone, len(reqs)))
		}
	}
	d.in.Workload.Requests = RemoveSorted(reqs, gone)
	d.routes = RemoveSorted(d.routes, gone)
	d.pend = shiftIndices(d.pend, gone)
	d.chainStale = true
	return len(d.routes)
}

// shiftIndices drops the members of the ascending gone from hs, in any
// order, and lowers each survivor by the departures before it.
func shiftIndices(hs, gone []int) []int {
	out := hs[:0]
	for _, h := range hs {
		g, dep := slices.BinarySearch(gone, h)
		if !dep {
			out = append(out, h-g)
		}
	}
	return out
}

// RemoveSorted removes the elements at the ascending indices idx from s in
// one pass and zeroes the freed tail, so that nothing removed is kept alive:
// the compaction EditRequests applies to the bound list, for a caller that
// keeps lists of its own in step with it.
func RemoveSorted[T any](s []T, idx []int) []T {
	w := idx[0]
	for j, r := range idx {
		next := len(s)
		if j+1 < len(idx) {
			next = idx[j+1]
		}
		w += copy(s[w:], s[r+1:next])
	}
	clear(s[w:])
	return s[:w]
}

// BoundTo reports whether the evaluator scores exactly what a fresh one
// bound to (in, mode, seed) would: the same substrate, catalog, trade-off,
// budget, cloud and cold-start model, and request for request the same
// workload — at once when in carries the evaluator's own Workload. A consumer
// handed a long-lived evaluator checks this before trusting it.
func (d *DeltaEvaluator) BoundTo(in *Instance, mode RoutingMode, seed int64) bool {
	b := d.in
	if b.Graph != in.Graph || b.Workload.Catalog != in.Workload.Catalog ||
		b.Cloud != in.Cloud || b.ColdStart != in.ColdStart ||
		math.Float64bits(b.Lambda) != math.Float64bits(in.Lambda) ||
		math.Float64bits(b.Budget) != math.Float64bits(in.Budget) ||
		d.mode != mode || (mode == RouteModeRandom && d.seed != seed) ||
		len(b.Workload.Requests) != len(in.Workload.Requests) {
		return false
	}
	if b.Workload == in.Workload {
		return true // the evaluator's own workload: its requests are the ones routed
	}
	for h := range in.Workload.Requests {
		if !sameRequest(&b.Workload.Requests[h], &in.Workload.Requests[h]) {
			return false
		}
	}
	return true
}

// Index exposes the underlying placement index (read-only use; mutating it
// directly desynchronizes the evaluator, which the next Eval reports).
func (d *DeltaEvaluator) Index() *PlacementIndex { return d.ix }

// Placement returns the bound placement (aliased, not a copy).
func (d *DeltaEvaluator) Placement() Placement { return d.ix.Placement() }

// checkEpoch panics when the index mutated behind the evaluator's back.
func (d *DeltaEvaluator) checkEpoch(op string) {
	if e := d.ix.Epoch(); e != d.epoch {
		panic(fmt.Sprintf("model: DeltaEvaluator %s on stale binding: index epoch %d, evaluator expected %d (placement mutated outside Apply/Revert/AdvanceTo)", op, e, d.epoch))
	}
	// Cached latencies embed the cold-start term, so a cold-set change (or a
	// ColdStart swap on the instance) silently stales every entry; fail as
	// loudly as an index drift. Rebind re-captures both.
	if d.in.ColdStart != d.cold {
		panic(fmt.Sprintf("model: DeltaEvaluator %s after Instance.ColdStart was swapped; Rebind to adopt the new model", op))
	}
	if d.cold != nil && d.cold.Epoch() != d.coldEpoch {
		panic(fmt.Sprintf("model: DeltaEvaluator %s on stale cold-start binding: cold epoch %d, evaluator expected %d (cold set mutated since bind; Rebind required)", op, d.cold.Epoch(), d.coldEpoch))
	}
}

// Apply sets x(svc,node)=val and returns the undo record. Applying a value
// the placement already holds is a no-op that still returns a (trivially
// revertible) delta. The mutation invalidates the affected cache entries per
// the rules in the file comment; each valid entry it invalidates is recorded
// in the delta (see there), so a Revert restores both placement and cache
// exactly.
func (d *DeltaEvaluator) Apply(svc, node int, val bool) *Delta {
	d.checkEpoch("Apply")
	dl := &Delta{svc: svc, node: node, val: val, gen: d.evalGen, undoGen: d.undoGen}
	if d.ix.Has(svc, node) == val {
		dl.noop = true
		return dl // nothing saved, nothing invalidated
	}
	if d.flags(val) {
		dl.flipped = popSpare(&d.spareFlipped)
	} else {
		dl.saved = popSpare(&d.spareSaved)
	}
	d.ix.Set(svc, node, val)
	d.epoch = d.ix.Epoch()
	d.invalidate(svc, node, val, dl)
	return dl
}

// flags reports whether a mutation setting a bit to val invalidates every
// valid entry over its service (and so records indices, not entries): an
// addition, or any mutation under random routing.
func (d *DeltaEvaluator) flags(val bool) bool { return val || d.mode == RouteModeRandom }

// popSpare takes a recycled buffer off pool, or returns nil.
func popSpare[T any](pool *[][]T) []T {
	n := len(*pool)
	if n == 0 {
		return nil
	}
	b := (*pool)[n-1]
	*pool = (*pool)[:n-1]
	return b
}

// Revert undoes a delta from Apply: the placement bit and all invalidated
// cache entries return to their pre-Apply state. An entry routed since the
// Apply (its gen outruns the delta's) is exact for the placement Revert
// leaves only if un-doing the mutation cannot change it: after a removal it
// is invalidated, since the instance comes back; after an addition it goes
// through the removal rule, last-instance case included. When nothing was
// routed or probed since the Apply there is no such entry, and the walk over
// the service's requests is skipped. Reverting twice panics, and so does
// reverting a delta taken before an EditRequests, AdvanceTo or Rebind;
// overlapping deltas must revert in LIFO order.
func (d *DeltaEvaluator) Revert(dl *Delta) {
	d.checkEpoch("Revert")
	if dl.reverted {
		panic("model: DeltaEvaluator.Revert called twice on the same delta")
	}
	dl.reverted = true
	if dl.undoGen != d.undoGen {
		panic("model: DeltaEvaluator.Revert of a delta taken before EditRequests, AdvanceTo or Rebind")
	}
	if dl.noop {
		return
	}
	d.ix.Set(dl.svc, dl.node, !dl.val)
	d.epoch = d.ix.Epoch()
	if d.evalGen != dl.gen {
		memo := d.memoized()
		for _, h := range d.chains()[dl.svc] {
			if memo {
				d.chainGen[h]++ // reverting is itself a mutation of svc's candidates
			}
			// Un-doing the mutation sets the bit to !dl.val: its rule applies.
			e := &d.routes[h]
			if e.valid && e.gen > dl.gen &&
				(d.flags(!dl.val) || d.staleAfterRemoval(h, e, dl.svc, dl.node)) {
				d.queue(h)
			}
		}
	}
	for _, h := range dl.flipped {
		if e := &d.routes[h]; e.gen <= dl.gen {
			e.valid = true // invalidated by this Apply alone: its content is pre-Apply
		}
	}
	for _, sv := range dl.saved {
		e := &d.routes[sv.h]
		queued := e.queued
		*e = sv.e
		e.queued = queued
	}
	if cap(dl.flipped) > 0 {
		d.spareFlipped = append(d.spareFlipped, dl.flipped[:0])
	}
	if cap(dl.saved) > 0 {
		d.spareSaved = append(d.spareSaved, dl.saved[:0])
	}
	dl.flipped, dl.saved = nil, nil
}

// memoized reports whether some probe memo exists, which is when chainGen
// must track mutations.
func (d *DeltaEvaluator) memoized() bool { return d.altLat != nil || d.addProbe.tab != nil }

// trackChains allocates chainGen for the first probe memo.
func (d *DeltaEvaluator) trackChains() {
	if d.chainGen == nil {
		d.chainGen = make([]uint64, len(d.routes))
	}
}

// invalidate applies the mode-specific invalidation rule for a single
// mutation of (svc, node), recording each previously-valid entry it flips in
// dl's undo record (dl == nil when the caller keeps none, e.g. AdvanceTo).
func (d *DeltaEvaluator) invalidate(svc, node int, added bool, dl *Delta) {
	memo := d.memoized()
	flags := d.flags(added)
	pend := d.pend // queue's bookkeeping, kept local across the walk
	for _, h := range d.chains()[svc] {
		if memo {
			d.chainGen[h]++ // drop probe memos: their candidate view is stale
		}
		e := &d.routes[h]
		if !e.valid {
			continue
		}
		switch {
		case flags:
			// Additions can improve any route over svc; random routing indexes
			// candidate lists by position, so any resize reshuffles the draws.
			if dl != nil {
				dl.flipped = append(dl.flipped, h)
			}
		case d.staleAfterRemoval(h, e, svc, node):
			if dl != nil {
				dl.saved = append(dl.saved, routeSave{h, *e})
			}
		default:
			continue
		}
		e.valid = false
		if !e.queued {
			e.queued = true
			pend = append(pend, h)
		}
	}
	d.pend = pend
}

// staleAfterRemoval is the removal rule under optimal/greedy routing, for
// request h's valid entry e once (svc, node) is gone: only a route that
// executed a step on the removed instance can change (see the file comment
// for the tie-break argument) — plus, when svc just lost its last instance, a
// request that was disconnected from every instance of it: deployed-but-
// unreachable turns into ErrNoInstance (missing, or cloud-served).
func (d *DeltaEvaluator) staleAfterRemoval(h int, e *deltaRoute, svc, node int) bool {
	if e.nodes == nil {
		// Count only for the (rare) disconnected entry: it rebuilds the
		// index's node list for svc.
		return !e.cloud && !e.missing && d.ix.Count(svc) == 0
	}
	chain := d.in.Workload.Requests[h].Chain
	for t, k := range e.nodes {
		if k == node && chain[t] == svc {
			return true
		}
	}
	return false
}

// AdvanceTo mutates the bound placement into p (diff-and-apply, no undo) and
// returns the number of instance bits changed. A delta taken before it can no
// longer be reverted. It is the sweep entry point:
// successive placements of a figure sweep share most of their instances, so
// the next Eval re-routes only requests whose services actually moved.
func (d *DeltaEvaluator) AdvanceTo(p Placement) int {
	d.checkEpoch("AdvanceTo")
	d.undoGen++
	d.dropAddProbe() // a sweep step ends a probe session: give the rows back
	cur := d.ix.Placement()
	if len(p.X) != len(cur.X) {
		panic(fmt.Sprintf("model: DeltaEvaluator.AdvanceTo placement shape %d services != bound %d", len(p.X), len(cur.X)))
	}
	changed := 0
	for i := range p.X {
		if slices.Equal(cur.X[i], p.X[i]) {
			continue
		}
		for k := range p.X[i] {
			if cur.X[i][k] == p.X[i][k] {
				continue
			}
			val := p.X[i][k]
			d.ix.Set(i, k, val)
			d.invalidate(i, k, val, nil)
			changed++
		}
	}
	d.epoch = d.ix.Epoch()
	return changed
}

// Rebind points the evaluator at a (possibly different) placement and drops
// every cached route and the revertibility of every outstanding delta.
func (d *DeltaEvaluator) Rebind(p Placement) {
	d.ix.Rebind(p)
	d.epoch = d.ix.Epoch()
	d.undoGen++
	d.dropAddProbe()
	d.cold = d.in.ColdStart
	if d.cold != nil {
		d.coldEpoch = d.cold.Epoch()
	}
	d.pend = d.pend[:0]
	for h := range d.routes {
		d.routes[h] = deltaRoute{}
		d.queue(h)
	}
	for h := range d.chainGen {
		d.chainGen[h]++
	}
}

// rerouteOne refreshes request h's cache entry under the live placement.
func (d *DeltaEvaluator) rerouteOne(h int) {
	req := &d.in.Workload.Requests[h]
	var (
		a   Assignment
		lat float64
		err error
	)
	switch d.mode {
	case RouteModeGreedy:
		a, lat, err = d.in.routeGreedy(req, d.ix)
	case RouteModeRandom:
		// Independent per-request stream: identical to EvaluateRouted's.
		rng := rand.New(rand.NewSource(d.seed + int64(h)*0x9e3779b9))
		a, lat, err = d.in.routeRandom(req, d.ix, rng)
	default:
		a, lat, err = d.in.routeOptimal(req, d.ix, d.scratch)
	}
	e := &d.routes[h]
	*e = deltaRoute{valid: true, gen: d.evalGen}
	switch {
	case err == nil:
		e.nodes, e.lat = a.Nodes, lat
	case IsNoInstance(err) && d.in.Cloud != nil:
		// Sentinel discipline as everywhere: only ErrNoInstance is eligible
		// for the cloud fallback; any other error counts as missing.
		e.cloud = true
		e.lat = d.in.Cloud.CloudCompletionTime(d.in.Workload.Catalog, req)
	default:
		e.missing = true
		e.lat = math.Inf(1)
	}
}

// refresh re-routes the pending entries that are still invalid under the
// live placement, stamping them with a fresh generation. The order is the
// pending list's: optimal and greedy routes are per request, and random
// routing seeds each request by its index.
func (d *DeltaEvaluator) refresh() {
	d.evalGen++
	dirty := d.pend[:0]
	for _, h := range d.pend {
		e := &d.routes[h]
		e.queued = false
		if !e.valid {
			dirty = append(dirty, h)
		}
	}
	d.pend, d.dirtyBuf = d.dirtyBuf[:0], dirty
	d.selfCheckPending(dirty)
	d.Recomputed += len(dirty)
	d.Hits += len(d.routes) - len(dirty)

	for _, h := range dirty {
		d.rerouteOne(h)
	}
}

// EvalObjective is the probe-loop fast path: the exact objective (Eq. 3/8)
// and budget flag of the bound placement, bit-identical to the same fields
// of Eval, without materializing the full Evaluation. Search loops that
// compare thousands of candidates per round (GC-OG) only consume these two
// scalars, so skipping the per-request Routes/Latencies assembly removes the
// dominant allocation from the hot path.
func (d *DeltaEvaluator) EvalObjective() (objective float64, overBudget bool) {
	d.checkEpoch("EvalObjective")
	d.refresh()
	cost := d.deployCost()
	latSum := 0.0
	for h := range d.routes {
		latSum += d.routes[h].lat
	}
	objective = d.in.Objective(cost, latSum)
	overBudget = !(cost <= d.in.Budget+FeasTol)
	d.selfCheckDeltaScalars(objective, overBudget)
	return objective, overBudget
}

// AnyLate reports whether constraint (4) fails under the bound placement:
// some request with a finite deadline is missing, or completes — served by
// the edge, the cloud, or by nothing reachable (+Inf) — later than its
// deadline plus FeasTol. A valid entry is the request's exact outcome, so
// one that is already late decides the verdict with nothing re-routed;
// otherwise only the invalid entries are re-routed, and then examined.
// Deadlines are read live from the workload, never cached.
func (d *DeltaEvaluator) AnyLate() bool {
	d.checkEpoch("AnyLate")
	late := d.anyLate()
	d.selfCheckAnyLate(late)
	return late
}

func (d *DeltaEvaluator) anyLate() bool {
	for h := range d.routes {
		if d.routes[h].valid && d.late(h) {
			return true
		}
	}
	d.refresh()
	for _, h := range d.dirtyBuf {
		if d.late(h) {
			return true
		}
	}
	return false
}

// late is the Eq. 4 verdict on request h's entry.
func (d *DeltaEvaluator) late(h int) bool {
	deadline := d.in.Workload.Requests[h].Deadline
	if math.IsInf(deadline, 1) {
		return false
	}
	e := &d.routes[h]
	return e.missing || e.lat > deadline+FeasTol
}

// ProbeRemoval answers "what would the exact objective be with x(svc,node)
// cleared?" without mutating the binding — bit-identical to an
// Apply → EvalObjective → Revert round-trip. Under optimal/greedy routing the
// only requests whose routes can change are those currently executing a step
// on the probed instance; their counterfactual latencies are memoized in
// altLat and survive until some service in their chain actually mutates, so
// a GC-OG candidate sweep pays re-routing only for requests the previous
// accepted move touched. Random-mode probes fall back to the mutate-and-
// revert path, whose per-request streams have no removal locality to
// exploit.
func (d *DeltaEvaluator) ProbeRemoval(svc, node int) (objective float64, overBudget bool) {
	d.checkEpoch("ProbeRemoval")
	// Random routing, and removing a service's last instance (which also
	// reclassifies requests no cached route ties to the instance), take the
	// mutate-and-revert path.
	if !d.ix.Has(svc, node) || d.mode == RouteModeRandom || d.ix.Count(svc) == 1 {
		if d.ix.Has(svc, node) {
			dl := d.Apply(svc, node, false)
			objective, overBudget = d.EvalObjective()
			d.Revert(dl)
			return objective, overBudget
		}
		return d.EvalObjective() // removing an absent instance is the identity
	}
	d.refresh()
	if d.altLat == nil {
		d.trackChains()
		reqs := d.in.Workload.Requests
		d.altGen = make([]uint64, len(reqs))
		d.altOff = make([]int, len(reqs)+1)
		for h := range reqs {
			d.altOff[h+1] = d.altOff[h] + len(reqs[h].Chain)
			d.altGen[h] = d.chainGen[h] - 1 // force a reset on first touch
		}
		d.altLat = make([]float64, d.altOff[len(reqs)])
		d.altSet = make([]bool, len(d.altLat))
	}

	// Collect the affected requests (chainReqs is ascending in h, so the
	// buffer is sorted for the merge below) and their memoized-or-computed
	// counterfactual latencies.
	aff := d.affBuf[:0]
	for _, h := range d.chains()[svc] {
		e := &d.routes[h]
		if e.nodes == nil {
			continue // cloud/missing/disconnected: removal cannot affect it
		}
		chain := d.in.Workload.Requests[h].Chain
		t0 := -1
		for t, k := range e.nodes {
			if k == node && chain[t] == svc {
				t0 = t
				break
			}
		}
		if t0 == -1 {
			continue
		}
		if d.altGen[h] != d.chainGen[h] {
			clear(d.altSet[d.altOff[h]:d.altOff[h+1]])
			d.altGen[h] = d.chainGen[h]
		}
		at := d.altOff[h] + t0
		if !d.altSet[at] {
			d.altLat[at] = d.probeLat(h, svc, node)
			d.altSet[at] = true
		}
		aff = append(aff, affectedAlt{h, d.altLat[at]})
	}
	d.affBuf = aff

	// Merge-walk: identical summation order and values as EvalObjective on
	// the mutated placement, hence a bitwise-identical LatencySum.
	latSum := 0.0
	ai := 0
	for h := range d.routes {
		if ai < len(aff) && aff[ai].h == h {
			latSum += aff[ai].lat
			ai++
		} else {
			latSum += d.routes[h].lat
		}
	}
	cost := d.deployCostExcluding(svc, node)
	objective = d.in.Objective(cost, latSum)
	overBudget = !(cost <= d.in.Budget+FeasTol)
	d.selfCheckProbe(svc, node, objective, overBudget)
	return objective, overBudget
}

// probeLat routes request h against the candidate view with (svc,node)
// hidden and returns its completion time, classified exactly as rerouteOne
// would under a placement with the bit cleared.
func (d *DeltaEvaluator) probeLat(h, svc, node int) float64 {
	req := &d.in.Workload.Requests[h]
	d.exclude = excludeLister{ix: d.ix, svc: svc, node: node, buf: d.exclude.buf}
	var (
		lat float64
		err error
	)
	if d.mode == RouteModeGreedy {
		_, lat, err = d.in.routeGreedy(req, &d.exclude)
	} else {
		lat, err = d.in.routeOptimalLat(req, &d.exclude, d.scratch)
	}
	switch {
	case err == nil:
		return lat
	case IsNoInstance(err) && d.in.Cloud != nil:
		return d.in.Cloud.CloudCompletionTime(d.in.Workload.Catalog, req)
	default:
		return math.Inf(1)
	}
}

// deployCostExcluding mirrors Instance.DeployCost's exact iteration order
// with one instance skipped, so the partial sums — and therefore the result
// — are bitwise what DeployCost would return on the placement with the bit
// cleared.
func (d *DeltaEvaluator) deployCostExcluding(svc, node int) float64 {
	p := d.ix.Placement()
	cost := 0.0
	for i := range p.X {
		kappa := d.kappa[i]
		for k, on := range p.X[i] {
			if on && !(i == svc && k == node) {
				cost += kappa
			}
		}
	}
	return cost
}

// deployCost is DeployCost of the bound placement, computed once an index
// epoch.
func (d *DeltaEvaluator) deployCost() float64 {
	if !d.costOK || d.costEpoch != d.epoch {
		d.cost, d.costEpoch, d.costOK = d.in.DeployCost(d.ix.Placement()), d.epoch, true
	}
	return d.cost
}

// Stamp returns what the evaluator's next Eval or Summary would be built
// under; a consumer that derived something from one keeps it while the stamp
// holds.
func (d *DeltaEvaluator) Stamp() EvalStamp {
	d.checkEpoch("Stamp")
	return d.stamp()
}

func (d *DeltaEvaluator) stamp() EvalStamp {
	return EvalStamp{d.epoch, d.reqGen, math.Float64bits(d.in.Lambda), math.Float64bits(d.in.Budget)}
}

// Summary returns the scalars of Eval — bitwise the same — without
// materializing the per-request vectors: it re-routes what is invalid and
// makes one pass over the cache. Under an unchanged stamp it returns the
// cached summary, counted as a refresh that found nothing dirty. Afterwards,
// until the next mutation, Latency, RouteNodes and AppendFinite read the
// bound placement's evaluation request by request.
func (d *DeltaEvaluator) Summary() EvalSummary {
	d.checkEpoch("Summary")
	stamp := d.stamp()
	if d.sumOK && d.sumStamp == stamp {
		d.Hits += len(d.routes)
		return d.sum
	}
	d.refresh()
	d.sum, d.sumStamp, d.sumOK = d.summarize(nil), stamp, true
	d.selfCheckSummary(d.sum)
	return d.sum
}

// unreadEntry panics on a read of an entry no refresh has re-routed. The
// reads check validity inline and call it apart: kept out of line, it leaves
// Latency and RouteNodes small enough to inline into the tally's scan.
//
//go:noinline
func unreadEntry(h int) {
	panic(fmt.Sprintf("model: DeltaEvaluator read of request %d before Summary or Eval re-routed it", h))
}

// Latency returns request h's completion time, as Eval().Latencies[h].
func (d *DeltaEvaluator) Latency(h int) float64 {
	e := &d.routes[h]
	if !e.valid {
		unreadEntry(h)
	}
	return e.lat
}

// RouteNodes returns request h's edge route — the very slice of
// Eval().Routes[h].Nodes, nil when the cloud serves it or nothing does.
func (d *DeltaEvaluator) RouteNodes(h int) []int {
	e := &d.routes[h]
	if !e.valid {
		unreadEntry(h)
	}
	return e.nodes // nil unless routed (rerouteOne)
}

// AppendFinite appends the finite latencies to dst in request order: a copy
// of the block the last Summary or Eval pass wrote. It panics when that pass
// is stale — no Summary or Eval since the last mutation.
func (d *DeltaEvaluator) AppendFinite(dst []float64) []float64 {
	if !d.sumOK || d.sumStamp != d.stamp() {
		panic("model: DeltaEvaluator.AppendFinite before Summary or Eval, or after a mutation")
	}
	return append(dst, d.fin...)
}

// summarize is the one pass over the (refreshed) cache that both Summary and
// Eval make: EvaluateRouted's class split, the index-order sums of every
// latency and of the finite ones, and the block of finite latencies
// AppendFinite copies. With ev non-nil it also fills ev's Latencies and
// Routes.
func (d *DeltaEvaluator) summarize(ev *Evaluation) EvalSummary {
	reqs := d.in.Workload.Requests
	s := EvalSummary{Cost: d.deployCost()}
	if d.fin == nil {
		d.fin = make([]float64, 0, len(d.routes))
	}
	fin := d.fin[:0]
	for h := range d.routes {
		e := &d.routes[h]
		s.LatencySum += e.lat
		if !math.IsInf(e.lat, 1) {
			s.ServedLatencySum += e.lat
			s.Finite++
			fin = append(fin, e.lat)
		}
		if ev != nil {
			ev.Latencies[h] = e.lat
		}
		switch {
		case e.missing:
			s.MissingInstances++
			continue
		case e.cloud:
			s.CloudServed++
		default:
			if ev != nil {
				ev.Routes[h] = Assignment{Nodes: e.nodes}
			}
			if math.IsInf(e.lat, 1) {
				// Routed without the sentinel yet +Inf: instances exist but
				// every candidate chain is disconnected (same class split as
				// EvaluateRouted's routeOne).
				s.Unroutable++
			}
		}
		if e.lat > reqs[h].Deadline+FeasTol {
			s.DeadlineViolated++
		}
	}
	d.fin = fin
	s.Objective = d.in.Objective(s.Cost, s.LatencySum)
	return s
}

// Eval returns the exact evaluation of the bound placement — bit-identical
// to in.EvaluateRouted(Placement(), mode, seed) — re-routing only requests
// invalidated since the previous Eval. When nothing has moved since that
// call — no Apply, Revert, Rebind, EditRequests or AdvanceTo that changed a
// bit, and the same Lambda and Budget — it returns the previous call's
// evaluation itself, counted as a refresh that found nothing dirty. A
// returned Evaluation is therefore read-only: the previous and the next
// caller may hold the same one. Its Routes share node slices with the
// cache; they stay correct until the next mutation through the evaluator
// (re-routes install fresh slices, never mutate published ones). A consumer
// that reads only the scalars or a few requests calls Summary instead.
func (d *DeltaEvaluator) Eval() *Evaluation {
	d.checkEpoch("Eval")
	stamp := d.stamp()
	if ev := d.pub; ev != nil && d.pubStamp == stamp {
		d.Hits += len(d.routes)
		d.selfCheckDelta(ev)
		return ev
	}
	d.refresh()

	p := d.ix.Placement()
	n := len(d.routes)
	ev := &Evaluation{
		Placement:         p,
		Routes:            make([]Assignment, n),
		Latencies:         make([]float64, n),
		StorageViolatedAt: d.in.CheckStorage(p),
	}
	s := d.summarize(ev)
	ev.Cost, ev.LatencySum, ev.Objective = s.Cost, s.LatencySum, s.Objective
	ev.MissingInstances, ev.Unroutable = s.MissingInstances, s.Unroutable
	ev.CloudServed, ev.DeadlineViolated = s.CloudServed, s.DeadlineViolated
	ev.OverBudget = !(s.Cost <= d.in.Budget+FeasTol) // CheckBudget on the same cost
	d.selfCheckDelta(ev)
	d.pub, d.pubStamp = ev, stamp
	d.sum, d.sumStamp, d.sumOK = s, stamp, true
	return ev
}
