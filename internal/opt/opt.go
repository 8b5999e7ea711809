// Package opt implements an exact, specialized branch-and-bound solver for
// the SoCL ILP (Definition 4 with the star-linearized latency coefficients).
// It is the "OPT / Gurobi" stand-in for the paper's Fig. 2 and Fig. 7
// comparisons: exact on small instances, with runtime that grows
// exponentially in the number of users and edge servers.
//
// The solver exploits the facility-location structure of the ILP: once the
// deployment x is fixed, the optimal routing y is separable — each request
// step independently picks the deployed node with the smallest latency
// coefficient. Branch and bound therefore searches only over x, with a lower
// bound that combines
//
//   - the committed deployment cost plus the cheapest completion cost for
//     services that still lack an instance, and
//   - for every request step, the smallest coefficient over nodes not yet
//     excluded for its service.
//
// Both bounds tighten monotonically along a branch, and a greedy completion
// heuristic provides incumbents early. Cross-validation against the generic
// simplex-based MILP solver (package ilp) is part of the test suite.
package opt

import (
	"math"
	"sort"
	"time"

	"repro/internal/model"
)

// Options bounds the search.
type Options struct {
	TimeLimit time.Duration // 0 = unlimited
	MaxNodes  int64         // 0 = unlimited
	// WarmStart, when non-nil, seeds the incumbent (a feasible placement,
	// e.g. a SoCL solution) to sharpen pruning from the first node.
	WarmStart *model.Placement
	// Workers sizes the parallel branch-and-bound worker pool: 0 means
	// GOMAXPROCS, 1 runs the deterministic engine on one goroutine. Any
	// worker count returns the same status, objective and — via the
	// lexicographic incumbent tie-break — the same placement (DESIGN.md §9);
	// node/time-limited runs excepted.
	Workers int
}

// Status of an exact solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // proven optimal
	Feasible                 // stopped at a limit with an incumbent
	Infeasible               // no feasible deployment exists
	NoSolution               // stopped at a limit before any incumbent
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NoSolution:
		return "no-solution"
	default:
		return "?"
	}
}

// Result of an exact solve. StarObjective is the ILP (linearized) objective
// the search optimizes; callers compare algorithms with the exact evaluator
// (model.Evaluate) on the returned placement.
type Result struct {
	Status        Status
	Placement     model.Placement
	StarObjective float64
	Bound         float64 // proven lower bound on the ILP optimum
	Nodes         int64   // search-tree nodes expanded
	Elapsed       time.Duration
}

// demand is one (request, chain-step) needing a service.
type demand struct {
	svc  int
	coef []float64 // star coefficient per node
}

// solver holds the instance's precomputed bounds and branching order plus
// the mutable fixing state of one search; each engine worker gets its own
// state over the shared precomputation (cloneSearchState).
type solver struct {
	in *model.Instance

	V       int
	used    []int       // service IDs with at least one demand
	svcIdx  map[int]int // service ID → index into used
	demands [][]demand  // per used-service demands
	order   []varRef    // static branching order over (svcIdx, node)
	kappa   []float64   // deploy cost per used service
	phi     []float64   // storage per used service
	capSvc  []int       // max instances per service from the budget bound
	// pmedian[si][n] is an exact lower bound on the service's total demand
	// latency with at most n instances placed anywhere (n = 1..pmedianN),
	// computed once at the root; pmedianInf[si] is the n=∞ (all-nodes)
	// bound. Monotone: pmedian[si][1] ≥ pmedian[si][2] ≥ … ≥ pmedianInf.
	pmedian    [][]float64
	pmedianInf []float64
	lambda     float64
	budget     float64
	storCap    []float64

	// Search state.
	fixed    [][]int8 // per (svcIdx, node): -1 free, 0 fixed-off, 1 fixed-on
	instCnt  []int    // committed instances per used service
	allowCnt []int    // nodes still allowed per used service
	storUsed []float64
	costUsed float64

	// Seed incumbent (warm start, greedy completion) before the search starts.
	incumbent     model.Placement
	incumbentObj  float64
	haveIncumbent bool
}

// Solve finds the exact optimum of the star-linearized SoCL ILP for in with
// the parallel engine of engine.go.
func Solve(in *model.Instance, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return solveEngine(in, opts), nil
}

func newSolver(in *model.Instance) *solver {
	V := in.V()
	s := &solver{
		in: in, V: V,
		svcIdx: make(map[int]int),
		lambda: in.Lambda, budget: in.Budget,
		storCap:      make([]float64, V),
		incumbentObj: math.Inf(1),
	}
	for k := 0; k < V; k++ {
		s.storCap[k] = in.Graph.Node(k).Storage
	}
	for _, svc := range in.Workload.ServicesUsed() {
		s.svcIdx[svc] = len(s.used)
		s.used = append(s.used, svc)
	}
	s.demands = make([][]demand, len(s.used))
	for h := range in.Workload.Requests {
		req := &in.Workload.Requests[h]
		for t, svc := range req.Chain {
			d := demand{svc: svc, coef: make([]float64, V)}
			for k := 0; k < V; k++ {
				d.coef[k] = in.StarCoef(req, t, k)
			}
			si := s.svcIdx[svc]
			s.demands[si] = append(s.demands[si], d)
		}
	}
	s.kappa = make([]float64, len(s.used))
	s.phi = make([]float64, len(s.used))
	for si, svc := range s.used {
		m := in.Workload.Catalog.Service(svc)
		s.kappa[si] = m.DeployCost
		s.phi[si] = m.Storage
	}
	// Per-service instance cap from the budget constraint alone: with every
	// other used service needing ≥ 1 instance, n_i ≤ (𝒦^max − Σ_{j≠i} κ_j)/κ_i.
	// This is a valid ILP implication and prunes deep all-ones branches.
	totalKappa := 0.0
	for _, k := range s.kappa {
		totalKappa += k
	}
	s.capSvc = make([]int, len(s.used))
	for si := range s.used {
		c := int(math.Floor((s.budget - (totalKappa - s.kappa[si])) / s.kappa[si]))
		if c < 1 {
			c = 1
		}
		if c > V {
			c = V
		}
		s.capSvc[si] = c
	}

	// Static branching order: per service, nodes sorted by total demand
	// latency ascending (most attractive first); services interleaved by
	// demand volume so high-impact decisions come first.
	type scored struct {
		ref   varRef
		score float64
	}
	var all []scored
	for si := range s.used {
		for k := 0; k < V; k++ {
			tot := 0.0
			for _, d := range s.demands[si] {
				if !math.IsInf(d.coef[k], 1) {
					tot += d.coef[k]
				} else {
					tot += 1e12
				}
			}
			all = append(all, scored{ref: varRef{si, k}, score: tot / float64(len(s.demands[si])+1)})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score < all[j].score })
	s.order = make([]varRef, len(all))
	for i, a := range all {
		s.order[i] = a.ref
	}

	s.fixed = make([][]int8, len(s.used))
	for si := range s.fixed {
		s.fixed[si] = make([]int8, V)
		for k := range s.fixed[si] {
			s.fixed[si][k] = -1
		}
	}
	s.instCnt = make([]int, len(s.used))
	s.allowCnt = make([]int, len(s.used))
	for si := range s.allowCnt {
		s.allowCnt[si] = V
	}
	s.storUsed = make([]float64, V)
	s.computePMedianBounds()
	return s
}

// pmedianN caps the exact root p-median enumeration depth; C(V, 3) subsets
// stay cheap up to V ≈ 30 while capturing most of the latency/cost trade.
const pmedianN = 3

// computePMedianBounds fills pmedian and pmedianInf: per-service exact
// minimum total latency using at most n instances over the full node set.
// These are root bounds — excluding nodes along a branch only increases the
// true latency, so they stay valid everywhere in the tree.
func (s *solver) computePMedianBounds() {
	s.pmedian = make([][]float64, len(s.used))
	s.pmedianInf = make([]float64, len(s.used))
	for si := range s.used {
		D := s.demands[si]
		// n = ∞: every demand takes its global best node.
		inf := 0.0
		for _, d := range D {
			best := math.Inf(1)
			for k := 0; k < s.V; k++ {
				if d.coef[k] < best {
					best = d.coef[k]
				}
			}
			inf += best
		}
		s.pmedianInf[si] = inf

		maxN := pmedianN
		if maxN > s.V {
			maxN = s.V
		}
		s.pmedian[si] = make([]float64, maxN+1) // [0] unused
		// Exact best subset of each size by enumeration with running mins.
		// best[n] over all subsets of size n.
		cur := make([]float64, len(D)) // running per-demand min for the subset
		var rec func(start, depth, maxDepth int)
		best := math.Inf(1)
		var enumerate func(maxDepth int) float64
		rec = func(start, depth, maxDepth int) {
			if depth == maxDepth {
				tot := 0.0
				for _, c := range cur {
					tot += c
				}
				if tot < best {
					best = tot
				}
				return
			}
			for k := start; k <= s.V-(maxDepth-depth); k++ {
				saved := make([]float64, 0, 4)
				savedIdx := make([]int, 0, 4)
				for di, d := range D {
					if d.coef[k] < cur[di] {
						saved = append(saved, cur[di])
						savedIdx = append(savedIdx, di)
						cur[di] = d.coef[k]
					}
				}
				rec(k+1, depth+1, maxDepth)
				for i, di := range savedIdx {
					cur[di] = saved[i]
				}
			}
		}
		enumerate = func(maxDepth int) float64 {
			best = math.Inf(1)
			for di := range cur {
				cur[di] = math.Inf(1)
			}
			rec(0, 0, maxDepth)
			return best
		}
		for n := 1; n <= maxN; n++ {
			s.pmedian[si][n] = enumerate(n)
		}
	}
}

// svcLatencyBound returns a valid lower bound on service si's latency given
// exactly-or-more-than n instances may be used: the root p-median bound for
// n within the enumerated range, else the all-nodes bound.
func (s *solver) svcLatencyBound(si, n int) float64 {
	if n >= 1 && n < len(s.pmedian[si]) {
		return s.pmedian[si][n]
	}
	return s.pmedianInf[si]
}

type varRef struct{ si, k int }

func (s *solver) fix(v varRef, val int8) {
	s.fixed[v.si][v.k] = val
	if val == 1 {
		s.instCnt[v.si]++
		s.storUsed[v.k] += s.phi[v.si]
		s.costUsed += s.kappa[v.si]
	} else {
		s.allowCnt[v.si]--
	}
}

func (s *solver) unfix(v varRef, val int8) {
	s.fixed[v.si][v.k] = -1
	if val == 1 {
		s.instCnt[v.si]--
		s.storUsed[v.k] -= s.phi[v.si]
		s.costUsed -= s.kappa[v.si]
	} else {
		s.allowCnt[v.si]++
	}
}

// lowerBound computes an admissible bound for the current partial fixing.
// Per service it takes the best trade over the instance count n — paying
// λ·κ·n while bounding latency by the larger of the root p-median bound
// L(n) and the branch-aware min-over-allowed-nodes sum — and adds the
// services' independent optima (a valid relaxation of the budget/storage
// coupling). Returns +Inf when the partial fixing is already infeasible.
func (s *solver) lowerBound() float64 {
	// Budget feasibility of the cheapest completion.
	cost := s.costUsed
	for si := range s.used {
		if s.instCnt[si] == 0 {
			if s.allowCnt[si] == 0 {
				return math.Inf(1) // service can never get an instance
			}
			cost += s.kappa[si]
		}
	}
	if cost > s.budget+model.FeasTol {
		return math.Inf(1)
	}

	bound := 0.0
	for si := range s.used {
		// Branch-aware latency floor: each demand's best allowed node.
		fx := s.fixed[si]
		allowedLat := 0.0
		for _, d := range s.demands[si] {
			best := math.Inf(1)
			for k := 0; k < s.V; k++ {
				if fx[k] != 0 && d.coef[k] < best {
					best = d.coef[k]
				}
			}
			if math.IsInf(best, 1) {
				return math.Inf(1)
			}
			allowedLat += best
		}
		// Trade over the instance count: at least the committed count, at
		// least 1, at most the budget cap (or the allowed-node count).
		nMin := s.instCnt[si]
		if nMin < 1 {
			nMin = 1
		}
		nMax := s.capSvc[si]
		if nMax > s.allowCnt[si] {
			nMax = s.allowCnt[si]
		}
		if nMax < nMin {
			nMax = nMin
		}
		best := math.Inf(1)
		for n := nMin; n <= nMax; n++ {
			lat := s.svcLatencyBound(si, n)
			if allowedLat > lat {
				lat = allowedLat
			}
			v := s.lambda*s.kappa[si]*float64(n) + (1-s.lambda)*lat
			if v < best {
				best = v
			}
			// κ·n grows while lat is already at its floor: once lat ==
			// allowedLat further n only cost more.
			//socllint:ignore floateq lat was literally assigned allowedLat above; assignment-equality is exact
			if lat == allowedLat {
				break
			}
		}
		bound += best
	}
	return bound
}

// starObjectiveOf scores an arbitrary placement under the star objective,
// reporting false when infeasible (missing instance, storage, or budget).
func (s *solver) starObjectiveOf(p model.Placement) (float64, bool) {
	cost := s.in.DeployCost(p)
	if cost > s.budget+model.FeasTol || s.in.CheckStorage(p) != -1 {
		return 0, false
	}
	lat := 0.0
	for si, svc := range s.used {
		nodes := p.NodesOf(svc)
		if len(nodes) == 0 {
			return 0, false
		}
		for _, d := range s.demands[si] {
			best := math.Inf(1)
			for _, k := range nodes {
				if d.coef[k] < best {
					best = d.coef[k]
				}
			}
			if math.IsInf(best, 1) {
				return 0, false
			}
			lat += best
		}
	}
	return s.lambda*cost + (1-s.lambda)*lat, true
}

// tryGreedyIncumbent builds a feasible placement greedily: every used
// service goes on the single node minimizing its total demand latency
// subject to storage, then repeatedly adds the instance with the best
// objective improvement while budget remains.
func (s *solver) tryGreedyIncumbent() {
	p := model.NewPlacement(s.in.M(), s.V)
	stor := make([]float64, s.V)
	cost := 0.0
	for si, svc := range s.used {
		bestK, bestTot := -1, math.Inf(1)
		for k := 0; k < s.V; k++ {
			if stor[k]+s.phi[si] > s.storCap[k]+model.FeasTol {
				continue
			}
			tot := 0.0
			for _, d := range s.demands[si] {
				tot += d.coef[k]
			}
			if tot < bestTot {
				bestTot, bestK = tot, k
			}
		}
		if bestK == -1 || cost+s.kappa[si] > s.budget+model.FeasTol {
			return // no feasible greedy start
		}
		p.Set(svc, bestK, true)
		stor[bestK] += s.phi[si]
		cost += s.kappa[si]
	}
	obj, ok := s.starObjectiveOf(p)
	if !ok {
		return
	}
	// Improvement loop: add the single instance with the largest objective
	// decrease until none helps.
	for {
		bestObj, bestSi, bestK := obj, -1, -1
		for si, svc := range s.used {
			if cost+s.kappa[si] > s.budget+model.FeasTol {
				continue
			}
			for k := 0; k < s.V; k++ {
				if p.Has(svc, k) || stor[k]+s.phi[si] > s.storCap[k]+model.FeasTol {
					continue
				}
				p.Set(svc, k, true)
				if o, ok := s.starObjectiveOf(p); ok && o < bestObj-model.ObjTol {
					bestObj, bestSi, bestK = o, si, k
				}
				p.Set(svc, k, false)
			}
		}
		if bestSi == -1 {
			break
		}
		p.Set(s.used[bestSi], bestK, true)
		stor[bestK] += s.phi[bestSi]
		cost += s.kappa[bestSi]
		obj = bestObj
	}
	if !s.haveIncumbent || obj < s.incumbentObj {
		s.incumbent = p.Clone()
		s.incumbentObj = obj
		s.haveIncumbent = true
	}
}
