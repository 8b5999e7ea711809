// Parallel branch-and-bound engine for the specialized OPT solver. Same
// architecture as internal/ilp's engine (DESIGN.md §9, §14): the root of the
// fixing tree seeds a work-stealing pool (internal/bb); each worker runs the
// recursive search over a private copy of the mutable fixing state and, while
// some other worker is starving, peels off the x=0 sibling of a shallow
// branch point as a stealable decision prefix. The incumbent is shared
// through an atomic best-objective plus a mutex-guarded store with a
// lexicographic tie-break over the decision vector (along the static
// branching order, x=1 before x=0 — the order the serial search visits leaves
// in), and the bound prune keeps ties alive (cut only when lb exceeds the
// incumbent by more than model.ObjTol), so every worker count — and every
// schedule — returns the same placement.
package opt

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bb"
	"repro/internal/invariant"
	"repro/internal/model"
)

// stealDepth caps how deep in the fixing tree a branch point may still be
// shared with the pool. Below it the x=0 sibling is always explored locally:
// deep subtrees are small, so sharing them buys no balance but costs a
// decision-prefix copy per push.
const stealDepth = 24

// pnode is one stealable subtree root: the decision vector for
// order[0:len(dec)] (1 = fixed on, 0 = fixed off).
type pnode struct {
	dec []int8
}

type optEngine struct {
	opts     Options
	maxNodes int64
	deadline time.Time

	// Shared incumbent: bits carries the best objective for lock-free prune
	// reads; the decision vector, placement and tie-break run under mu.
	mu           sync.Mutex
	bits         atomic.Uint64
	incDec       []int8
	incObj       float64
	incOK        bool
	incPlacement model.Placement

	nodes   atomic.Int64
	aborted atomic.Bool
}

// solveEngine is the search behind Solve.
func solveEngine(in *model.Instance, opts Options) Result {
	base := newSolver(in)
	e := &optEngine{opts: opts, maxNodes: opts.MaxNodes}
	e.bits.Store(math.Float64bits(math.Inf(1)))
	//socllint:ignore detrand wall-clock time limit is an explicit Options knob, not hidden nondeterminism
	start := time.Now()
	if opts.TimeLimit > 0 {
		e.deadline = start.Add(opts.TimeLimit)
	}
	rootBound := base.lowerBound()

	// Seed incumbents — warm start, then the greedy completion heuristic — and
	// move the winner into the store.
	if opts.WarmStart != nil {
		if obj, ok := base.starObjectiveOf(*opts.WarmStart); ok {
			base.incumbent = opts.WarmStart.Clone()
			base.incumbentObj = obj
			base.haveIncumbent = true
		}
	}
	base.tryGreedyIncumbent()
	if base.haveIncumbent {
		e.offer(decOfPlacement(base, base.incumbent), base.incumbentObj, base.incumbent.Clone())
	}

	// The whole tree is one seed; balance comes from workers peeling shallow
	// x=0 siblings off their dive while others starve. Each worker keeps its
	// own fixing-state clone, and a stolen node replays its decision prefix
	// onto it — the node's search state depends only on its tree position,
	// never on the schedule.
	states := make([]*solver, bb.ResolveWorkers(opts.Workers))
	for i := range states {
		states[i] = cloneSearchState(base)
	}
	// bb.Run returns an error only when the process callback does; this one
	// never fails (limits abort via e.aborted, which is the stop fn).
	_, _ = bb.Run(len(states), []pnode{{}}, e.aborted.Load, func(c *bb.Ctx[pnode], nd pnode) error {
		ws := states[c.Worker()]
		applyPrefix(ws, nd.dec)
		e.dfs(c, ws, len(nd.dec))
		unapplyPrefix(ws, nd.dec)
		return nil
	})

	res := Result{Bound: rootBound}
	//socllint:ignore detrand elapsed wall time is reported, never branched on
	res.Elapsed = time.Since(start)
	n := e.nodes.Load()
	if e.maxNodes > 0 && n > e.maxNodes {
		n = e.maxNodes // workers may overshoot the counter by the pool size
	}
	res.Nodes = n
	aborted := e.aborted.Load()
	switch {
	case e.incOK && !aborted:
		res.Status = Optimal
		res.Placement = e.incPlacement
		res.StarObjective = e.incObj
		res.Bound = e.incObj
	case e.incOK:
		res.Status = Feasible
		res.Placement = e.incPlacement
		res.StarObjective = e.incObj
	case aborted:
		res.Status = NoSolution
	default:
		res.Status = Infeasible
	}
	return res
}

// countNode claims one node against the global limits, with the serial
// reference's semantics: the limit-hitting node is counted but not processed,
// and the wall clock is checked only every 256 nodes.
func (e *optEngine) countNode() bool {
	n := e.nodes.Add(1)
	if e.maxNodes > 0 && n >= e.maxNodes {
		e.aborted.Store(true)
		return false
	}
	//socllint:ignore detrand wall-clock time limit is an explicit Options knob, not hidden nondeterminism
	if !e.deadline.IsZero() && n%256 == 0 && time.Now().After(e.deadline) {
		e.aborted.Store(true)
		return false
	}
	return true
}

// pruned is the deterministic bound test (see DESIGN.md §9). A subtree is
// cut when its bound exceeds the incumbent by more than model.ObjTol — and,
// within the tie window, when its decision prefix is already
// lexicographically greater than the incumbent's vector. The second rule is
// what keeps tie enumeration from exploding once an optimal incumbent is
// known, and it is schedule-safe: the lex-smallest optimal leaf L always
// survives, because any subtree containing L has a prefix that agrees with L
// and is therefore never lex-greater than an incumbent L precedes.
func (e *optEngine) pruned(s *solver, pos int, lb float64) bool {
	best := math.Float64frombits(e.bits.Load())
	if lb > best+model.ObjTol {
		return true
	}
	if lb <= best-model.ObjTol {
		return false // may contain a strictly better leaf
	}
	// Tie window: compare this node's decision prefix (the fixed values along
	// the branching order) against the incumbent's vector under the lock.
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.incOK {
		return false
	}
	for i := 0; i < pos && i < len(e.incDec); i++ {
		v := s.order[i]
		d := s.fixed[v.si][v.k]
		if d != e.incDec[i] {
			return d < e.incDec[i] // 0 where the incumbent has 1 → lex-greater
		}
	}
	return false
}

// dfs is the worker-side recursive search — the serial reference's dfs with
// the shared store substituted for the solver-local incumbent, plus one extra
// move: at a shallow branch point where both children are feasible and some
// worker is starving, the x=0 sibling is shared with the pool as a decision
// prefix (to be replayed on the thief's own state) instead of being explored
// locally after the x=1 dive. What runs locally is visited in the reference's
// order (x=1 first).
func (e *optEngine) dfs(c *bb.Ctx[pnode], s *solver, pos int) {
	if !e.countNode() {
		return
	}
	lb := s.lowerBound()
	if math.IsInf(lb, 1) || e.pruned(s, pos, lb) {
		return
	}
	if pos == len(s.order) {
		e.offerFixed(s, lb)
		return
	}
	v := s.order[pos]
	if s.fixed[v.si][v.k] != -1 {
		e.dfs(c, s, pos+1)
		return
	}
	can1 := s.instCnt[v.si] < s.capSvc[v.si] &&
		s.storUsed[v.k]+s.phi[v.si] <= s.storCap[v.k]+model.FeasTol &&
		s.costUsed+s.kappa[v.si] <= s.budget+model.FeasTol
	can0 := s.instCnt[v.si] > 0 || s.allowCnt[v.si] > 1
	if can1 && can0 && pos < stealDepth && c.ShouldShare() {
		c.Push(pnode{dec: appendDec(decPrefix(s, pos), 0)})
		can0 = false
	}
	if can1 {
		s.fix(v, 1)
		e.dfs(c, s, pos+1)
		s.unfix(v, 1)
		if e.aborted.Load() {
			return
		}
	}
	if can0 {
		s.fix(v, 0)
		e.dfs(c, s, pos+1)
		s.unfix(v, 0)
	}
}

// decPrefix reads the decision vector for order[0:pos] back out of the
// fixing state (every position below pos is fixed on the dive path).
func decPrefix(s *solver, pos int) []int8 {
	dec := make([]int8, pos)
	for i := 0; i < pos; i++ {
		v := s.order[i]
		dec[i] = s.fixed[v.si][v.k]
	}
	return dec
}

// offerFixed offers the current fully-fixed state as an incumbent.
func (e *optEngine) offerFixed(s *solver, obj float64) {
	dec := make([]int8, len(s.order))
	for i, v := range s.order {
		dec[i] = s.fixed[v.si][v.k]
	}
	p := model.NewPlacement(s.in.M(), s.V)
	for si, svc := range s.used {
		for k := 0; k < s.V; k++ {
			if s.fixed[si][k] == 1 {
				p.Set(svc, k, true)
			}
		}
	}
	if e.offer(dec, obj, p) {
		e.verify(s, p, obj)
	}
}

// offer installs (dec, obj, p) as the incumbent when strictly better than
// the current one (beyond model.ObjTol), or tied within model.ObjTol and
// lexicographically smaller. p must be owned by the caller.
func (e *optEngine) offer(dec []int8, obj float64, p model.Placement) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.incOK {
		if obj > e.incObj+model.ObjTol {
			return false
		}
		if obj >= e.incObj-model.ObjTol && !lexLessDec(dec, e.incDec) {
			return false
		}
	}
	e.incDec = append(e.incDec[:0], dec...)
	e.incObj, e.incOK = obj, true
	e.incPlacement = p
	e.bits.Store(math.Float64bits(obj))
	return true
}

// verify re-checks an accepted incumbent against the instance from scratch
// under -tags soclinvariants: budget (Eq. 5), storage (Eq. 6) and the star
// objective recomputed from the placement alone.
func (e *optEngine) verify(s *solver, p model.Placement, obj float64) {
	if !invariant.Enabled {
		return
	}
	invariant.CheckBudget(s.in, p, "opt engine incumbent")
	invariant.CheckStorage(s.in, p, "opt engine incumbent")
	o, ok := s.starObjectiveOf(p)
	invariant.Assertf(ok, "opt engine incumbent: placement infeasible on scratch recomputation")
	invariant.Assertf(invariant.AlmostEq(o, obj, 1e-6),
		"opt engine incumbent: objective %v != scratch recomputation %v", obj, o)
}

// lexLessDec orders decision vectors with 1 before 0 at each position — the
// order a serial depth-first search visits leaves in, so the engine's
// tie-break picks the leaf such a search finds first.
func lexLessDec(a, b []int8) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return false
}

// decOfPlacement maps a seed placement onto the decision-vector order.
func decOfPlacement(s *solver, p model.Placement) []int8 {
	dec := make([]int8, len(s.order))
	for i, v := range s.order {
		if p.Has(s.used[v.si], v.k) {
			dec[i] = 1
		}
	}
	return dec
}

func appendDec(dec []int8, d int8) []int8 {
	out := make([]int8, len(dec)+1)
	copy(out, dec)
	out[len(dec)] = d
	return out
}

// applyPrefix replays a decision vector onto s's fixing state.
func applyPrefix(s *solver, dec []int8) {
	for i, d := range dec {
		s.fix(s.order[i], d)
	}
}

// unapplyPrefix undoes applyPrefix.
func unapplyPrefix(s *solver, dec []int8) {
	for i := len(dec) - 1; i >= 0; i-- {
		s.unfix(s.order[i], dec[i])
	}
}

// cloneSearchState gives a worker its own mutable fixing state while sharing
// every immutable precomputation (demands, bounds, branching order).
func cloneSearchState(s *solver) *solver {
	c := &solver{}
	*c = *s
	c.fixed = make([][]int8, len(s.used))
	for si := range c.fixed {
		c.fixed[si] = make([]int8, c.V)
		for k := range c.fixed[si] {
			c.fixed[si][k] = -1
		}
	}
	c.instCnt = make([]int, len(s.used))
	c.allowCnt = make([]int, len(s.used))
	for si := range c.allowCnt {
		c.allowCnt[si] = c.V
	}
	c.storUsed = make([]float64, c.V)
	c.costUsed = 0
	c.incumbent = model.Placement{}
	c.incumbentObj = math.Inf(1)
	c.haveIncumbent = false
	return c
}
