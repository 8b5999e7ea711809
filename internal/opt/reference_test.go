package opt

import (
	"math"
	"time"

	"repro/internal/model"
)

// refSearch is the original serial recursive search, kept as the reference
// the parallel engine is differentially tested against: one goroutine, a
// solver-local incumbent, the plain incumbent-minus-FeasTol bound prune — no
// scheduler, no shared store, no tie window. It must not change behaviour.
type refSearch struct {
	*solver
	opts     Options
	deadline time.Time
	nodes    int64
	aborted  bool
}

// solveReference is Solve on the serial reference search.
func solveReference(in *model.Instance, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	s := &refSearch{solver: newSolver(in), opts: opts}
	return s.run(), nil
}

func (s *refSearch) run() Result {
	startTime := time.Now()
	if s.opts.TimeLimit > 0 {
		s.deadline = startTime.Add(s.opts.TimeLimit)
	}
	rootBound := s.lowerBound()

	if s.opts.WarmStart != nil {
		if obj, ok := s.starObjectiveOf(*s.opts.WarmStart); ok {
			s.incumbent = s.opts.WarmStart.Clone()
			s.incumbentObj = obj
			s.haveIncumbent = true
		}
	}
	// Greedy completion from the root as a primal heuristic.
	s.tryGreedyIncumbent()

	s.dfs(0)

	res := Result{
		Nodes:   s.nodes,
		Elapsed: time.Since(startTime),
		Bound:   rootBound,
	}
	switch {
	case s.haveIncumbent && !s.aborted:
		res.Status = Optimal
		res.Placement = s.incumbent
		res.StarObjective = s.incumbentObj
		res.Bound = s.incumbentObj
	case s.haveIncumbent:
		res.Status = Feasible
		res.Placement = s.incumbent
		res.StarObjective = s.incumbentObj
	case s.aborted:
		res.Status = NoSolution
	default:
		res.Status = Infeasible
	}
	return res
}

func (s *refSearch) limitHit() bool {
	if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
		return true
	}
	// Check the wall clock only every 256 nodes to keep the hot loop cheap.
	if !s.deadline.IsZero() && s.nodes%256 == 0 && time.Now().After(s.deadline) {
		return true
	}
	return false
}

// dfs explores the branching order from position pos.
func (s *refSearch) dfs(pos int) {
	s.nodes++
	if s.limitHit() {
		s.aborted = true
		return
	}
	lb := s.lowerBound()
	if math.IsInf(lb, 1) || (s.haveIncumbent && lb >= s.incumbentObj-model.FeasTol) {
		return
	}
	if pos == len(s.order) {
		// All variables fixed: the bound is now the exact star objective.
		s.recordIncumbent(lb)
		return
	}
	v := s.order[pos]
	if s.fixed[v.si][v.k] != -1 {
		s.dfs(pos + 1)
		return
	}

	// Branch x=1 first (acquiring instances early finds incumbents fast),
	// when storage, budget and the per-service instance cap permit.
	if s.instCnt[v.si] < s.capSvc[v.si] &&
		s.storUsed[v.k]+s.phi[v.si] <= s.storCap[v.k]+model.FeasTol &&
		s.costUsed+s.kappa[v.si] <= s.budget+model.FeasTol {
		s.fix(v, 1)
		s.dfs(pos + 1)
		s.unfix(v, 1)
		if s.aborted {
			return
		}
	}

	// Branch x=0.
	if s.instCnt[v.si] > 0 || s.allowCnt[v.si] > 1 {
		s.fix(v, 0)
		s.dfs(pos + 1)
		s.unfix(v, 0)
	}
}

// recordIncumbent stores a fully-fixed state as the new incumbent if better.
func (s *refSearch) recordIncumbent(obj float64) {
	if s.haveIncumbent && obj >= s.incumbentObj-model.ObjTol {
		return
	}
	p := model.NewPlacement(s.in.M(), s.V)
	for si, svc := range s.used {
		for k := 0; k < s.V; k++ {
			if s.fixed[si][k] == 1 {
				p.Set(svc, k, true)
			}
		}
	}
	s.incumbent = p
	s.incumbentObj = obj
	s.haveIncumbent = true
}
