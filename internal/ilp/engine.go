// Parallel branch-and-bound engine behind SolveBounded: warm-started node
// LPs on a work-stealing scheduler. Architecture (DESIGN.md §6):
//
//   - the root's children seed a work-stealing pool (internal/bb): each
//     worker dives depth-first on a private stack and shares the "up" sibling
//     of a branch onto its deque only while some other worker is starving
//     (bb.Ctx.ShouldShare) — with one worker nothing is ever shared and the
//     search is the exact serial dive;
//   - the incumbent is shared through an atomic best-objective (lock-free
//     reads on the prune path) plus a mutex-guarded vector with a
//     deterministic tie-break: at equal objective within model.ObjTol the
//     lexicographically smallest solution vector wins;
//   - node and time limits are enforced globally through one atomic node
//     counter and a shared deadline.
//
// Determinism: every node's LP result is a pure function of its tree
// position (warm from its parent for dive children, from the parent's
// snapshot for stolen or stacked siblings — never from whatever a worker last
// touched), and pruning keeps ties alive (a subtree is cut only when its
// bound exceeds the incumbent by more than model.ObjTol). Every solution
// within ObjTol of the optimum is therefore enumerated under every schedule,
// and the lexicographic tie-break picks the same winner — so any worker count
// returns the same result, which the differential tests pin against the
// serial reference.
package ilp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bb"
	"repro/internal/invariant"
	"repro/internal/lp"
	"repro/internal/model"
)

// mostFractional returns the most fractional integer variable of x, or -1
// when x is integer feasible — the same branching rule as the serial reference.
func mostFractional(integer []bool, x []float64) int {
	branchVar, frac := -1, 0.0
	for j := range integer {
		if !integer[j] {
			continue
		}
		f := x[j] - math.Floor(x[j])
		d := math.Min(f, 1-f)
		if d > intTol && d > frac {
			frac, branchVar = d, j
		}
	}
	return branchVar
}

// lexLessX orders solution vectors for the incumbent tie-break: elementwise,
// integer variables compared on their rounded values first so LP noise on an
// integral variable cannot flip the order.
func lexLessX(a, b []float64, integer []bool) bool {
	for j := range a {
		av, bv := a[j], b[j]
		if j < len(integer) && integer[j] {
			av, bv = math.Round(av), math.Round(bv)
		}
		if av < bv {
			return true
		}
		if av > bv {
			return false
		}
	}
	return false
}

// incumbentStore shares the incumbent between workers. bits carries the best
// objective for lock-free prune reads; the vector and the tie-break run
// under the mutex.
type incumbentStore struct {
	mu   sync.Mutex
	bits atomic.Uint64
	x    []float64
	obj  float64
	ok   bool
}

func (s *incumbentStore) init() { s.bits.Store(math.Float64bits(math.Inf(1))) }

// best returns the current best objective (+Inf read as "no incumbent").
func (s *incumbentStore) best() (float64, bool) {
	v := math.Float64frombits(s.bits.Load())
	return v, !math.IsInf(v, 1)
}

// offer installs x as the incumbent when it is strictly better than the
// current one (beyond model.ObjTol), or tied within model.ObjTol and
// lexicographically smaller. Reports whether x was installed.
func (s *incumbentStore) offer(x []float64, obj float64, integer []bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ok {
		if obj > s.obj+model.ObjTol {
			return false
		}
		if obj >= s.obj-model.ObjTol && !lexLessX(x, s.x, integer) {
			return false
		}
	}
	s.x = append(s.x[:0], x...)
	s.obj, s.ok = obj, true
	s.bits.Store(math.Float64bits(obj))
	return true
}

// take returns the final incumbent after all workers have stopped.
func (s *incumbentStore) take() ([]float64, float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok {
		return nil, math.Inf(1), false
	}
	return append([]float64(nil), s.x...), s.obj, true
}

// node is one open subproblem: the variable bounds of its branch, the parent
// LP objective (its bound until solved), and the parent's post-solve tableau.
type node struct {
	lower, upper []float64
	lpObj        float64
	// snap is the parent's post-solve tableau: the up sibling restores it, so
	// its warm source is the same parent basis the down child dove from. nil
	// (the root's children) means the root snapshot.
	snap *lp.WarmSnapshot
}

// engine is one SolveBounded run: the shared control block plus the warm
// sources that make each node's LP lineage a function of tree position.
type engine struct {
	m         *BoundedMIP
	opt       Options
	store     incumbentStore
	nodes     atomic.Int64
	aborted   atomic.Bool
	deadline  time.Time
	rootBound float64
	// snap is the root relaxation's tableau; the root's children restart from
	// it. Every deeper node carries its parent's snapshot instead (node.snap)
	// — still a pure function of tree position, never of which worker (or
	// schedule) ran the node. Dive children warm directly from their parent's
	// tableau, which in depth-first order is the last solve.
	snap *lp.WarmSnapshot
	// snapPool recycles per-branch parent snapshots: each is restored exactly
	// once (by the stacked or stolen up sibling) and then returns here.
	snapPool sync.Pool
}

// countNode claims one node against the global limits, reporting false (and
// flagging the abort) when a limit is hit.
func (e *engine) countNode() bool {
	n := e.nodes.Add(1)
	if e.opt.MaxNodes > 0 && n > int64(e.opt.MaxNodes) {
		e.aborted.Store(true)
		return false
	}
	//socllint:ignore detrand wall-clock time limit is an explicit Options knob, not hidden nondeterminism
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		e.aborted.Store(true)
		return false
	}
	return true
}

// pruned is the tie-keeping bound test: a subtree is cut only when its bound
// exceeds the incumbent by more than model.ObjTol, so equal-objective
// solutions stay reachable under every schedule (the determinism argument
// needs the full tie class enumerated).
func (e *engine) pruned(bound float64) bool {
	best, ok := e.store.best()
	return ok && bound > best+model.ObjTol
}

// finish assembles the Result exactly as the serial reference does: Optimal
// when the tree was exhausted, Feasible/NoSolution
// when a limit stopped the search, Infeasible when exhaustion found no
// integer point. Nodes is clamped to MaxNodes (the counter may overshoot by
// the worker count); LPIters sums the workers' solvers.
func (e *engine) finish(start time.Time, solvers []*lp.WarmSolver) Result {
	res := Result{Objective: math.Inf(1), Bound: e.rootBound}
	for _, ws := range solvers {
		res.LPIters += ws.Stats.Iters
	}
	//socllint:ignore detrand elapsed wall time is reported, never branched on
	res.Elapsed = time.Since(start)
	n := e.nodes.Load()
	if e.opt.MaxNodes > 0 && n > int64(e.opt.MaxNodes) {
		n = int64(e.opt.MaxNodes)
	}
	res.Nodes = int(n)
	x, obj, ok := e.store.take()
	aborted := e.aborted.Load()
	if !ok {
		if aborted {
			res.Status = NoSolution
		} else {
			res.Status = Infeasible
		}
		return res
	}
	res.X = x
	res.Objective = obj
	if !aborted {
		res.Status = Optimal
	} else {
		res.Status = Feasible
	}
	return res
}

// solveEngine is the parallel, warm-started search behind SolveBounded.
func solveEngine(m *BoundedMIP, opt Options) (Result, error) {
	//socllint:ignore detrand wall-clock time limit is an explicit Options knob, not hidden nondeterminism
	start := time.Now()
	e := &engine{m: m, opt: opt, rootBound: math.Inf(-1)}
	e.store.init()
	if opt.TimeLimit > 0 {
		e.deadline = start.Add(opt.TimeLimit)
	}
	// One warm solver per worker; the root relaxation runs on the first.
	solvers := make([]*lp.WarmSolver, bb.ResolveWorkers(opt.Workers))
	for i := range solvers {
		var err error
		if solvers[i], err = lp.NewWarmSolver(m.Prob); err != nil {
			return Result{}, err
		}
	}
	ws := solvers[0]

	// Root relaxation, handled explicitly so Infeasible/Unbounded map to the
	// same results the serial reference returns.
	e.nodes.Add(1)
	rootSol, err := ws.SolveWithBounds(m.Prob.Lower, m.Prob.Upper)
	if err != nil {
		return Result{}, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		//socllint:ignore detrand elapsed wall time is reported, never branched on
		return Result{Status: Infeasible, Nodes: 1, LPIters: ws.Stats.Iters, Elapsed: time.Since(start)}, nil
	case lp.Unbounded:
		return Result{}, fmt.Errorf("ilp: relaxation unbounded")
	case lp.IterLimit:
		return e.finish(start, solvers), nil
	}
	e.rootBound = rootSol.Objective
	e.snap = ws.Snapshot()

	var seeds []node
	if bv := mostFractional(m.Integer, rootSol.X); bv == -1 {
		if e.store.offer(rootSol.X, rootSol.Objective, m.Integer) {
			e.verify(rootSol.X, rootSol.Objective)
		}
	} else {
		down, up := branch(m.Prob.Lower, m.Prob.Upper, bv, rootSol.X[bv], rootSol.Objective)
		seeds = append(seeds, down, up)
	}

	// The root children seed the pool; load balance comes from workers sharing
	// "up" siblings while others starve.
	_, err = bb.Run(len(solvers), seeds, e.aborted.Load, func(c *bb.Ctx[node], nd node) error {
		return e.dfs(c, nd, solvers[c.Worker()])
	})
	if err != nil {
		return Result{}, err
	}
	return e.finish(start, solvers), nil
}

// processNode solves one node. fromSnapshot selects the warm source: true
// restores the node's parent tableau first (seeds, stacked and stolen
// siblings), false warms straight from the solver's current state (dive
// children, whose parent was by construction the previous solve on this
// solver).
func (e *engine) processNode(nd node, ws *lp.WarmSolver, fromSnapshot bool) (down, up node, branched bool, err error) {
	if !e.countNode() {
		return
	}
	if e.pruned(nd.lpObj) {
		return
	}
	for j := range nd.lower {
		if nd.lower[j] > nd.upper[j] {
			return // branching emptied the interval
		}
	}
	if fromSnapshot {
		if nd.snap != nil {
			ws.Restore(nd.snap)
			e.snapPool.Put(nd.snap)
		} else {
			ws.Restore(e.snap)
		}
	}
	sol, serr := ws.SolveWithBounds(nd.lower, nd.upper)
	if serr != nil {
		err = serr
		return
	}
	if sol.Status != lp.Optimal {
		return
	}
	if e.pruned(sol.Objective) {
		return
	}
	bv := mostFractional(e.m.Integer, sol.X)
	if bv == -1 {
		if e.store.offer(sol.X, sol.Objective, e.m.Integer) {
			e.verify(sol.X, sol.Objective)
			invariant.CheckWarmFactorization(ws, "ilp engine incumbent")
		}
		return
	}
	down, up = branch(nd.lower, nd.upper, bv, sol.X[bv], sol.Objective)
	branched = true
	return
}

// dfs explores one subtree depth-first on a private stack. The down child is
// processed immediately on the same solver (warm from the parent tableau it
// just produced, fromSnap=false); the up child is either shared with the pool
// (when a worker is starving) or stacked locally — both paths restart it from
// the parent's snapshot, so sharing changes the schedule but never a node's
// warm lineage.
func (e *engine) dfs(c *bb.Ctx[node], root node, ws *lp.WarmSolver) error {
	var stack []node
	cur, fromSnap, have := root, true, true
	for have && !e.aborted.Load() {
		down, up, branched, err := e.processNode(cur, ws, fromSnap)
		if err != nil {
			return err
		}
		switch {
		case branched:
			// The solver still holds cur's optimal tableau — the parent basis
			// for both children. Hand it to the up sibling before the down
			// dive mutates the solver.
			ps, _ := e.snapPool.Get().(*lp.WarmSnapshot)
			up.snap = ws.SnapshotTo(ps)
			if c.ShouldShare() {
				c.Push(up)
			} else {
				stack = append(stack, up)
			}
			cur, fromSnap = down, false
		case len(stack) > 0:
			cur, fromSnap = stack[len(stack)-1], true
			stack = stack[:len(stack)-1]
		default:
			have = false
		}
	}
	return nil
}

// verify re-checks an accepted incumbent from scratch under
// -tags soclinvariants.
func (e *engine) verify(x []float64, obj float64) {
	if !invariant.Enabled {
		return
	}
	for j, isInt := range e.m.Integer {
		if isInt {
			invariant.Assertf(math.Abs(x[j]-math.Round(x[j])) <= intTol,
				"ilp engine incumbent: variable %d = %v is not integral", j, x[j])
		}
	}
	invariant.CheckLPBoundedSolution(e.m.Prob, x, obj, "ilp engine incumbent")
}

// branch builds the two children of a node: down tightens the upper bound to
// floor(xv), up raises the lower bound to floor(xv)+1.
func branch(lower, upper []float64, bv int, xv, lpObj float64) (down, up node) {
	fl := math.Floor(xv)
	down = node{
		lower: append([]float64(nil), lower...),
		upper: append([]float64(nil), upper...),
		lpObj: lpObj,
	}
	down.upper[bv] = fl
	up = node{
		lower: append([]float64(nil), lower...),
		upper: append([]float64(nil), upper...),
		lpObj: lpObj,
	}
	up.lower[bv] = fl + 1
	return down, up
}
