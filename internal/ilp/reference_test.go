package ilp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
)

// solveBoundedNaive is the reference search the engine is differentially
// tested against: serial, depth-first, one cloned problem and from-scratch
// lp.SolveBounded per node — no warm starts, no scheduler, no shared state.
// It must not change behaviour.
func solveBoundedNaive(m *BoundedMIP, opt Options) (Result, error) {
	start := time.Now()
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = start.Add(opt.TimeLimit)
	}

	res := Result{Status: NoSolution, Objective: math.Inf(1), Bound: math.Inf(-1)}
	var incumbent []float64

	type node struct {
		lower, upper []float64
		lpObj        float64
	}
	root := node{
		lower: append([]float64(nil), m.Prob.Lower...),
		upper: append([]float64(nil), m.Prob.Upper...),
	}
	stack := []node{root}
	rootSolved := false
	rootBound := math.Inf(-1)

	for len(stack) > 0 {
		if opt.MaxNodes > 0 && res.Nodes >= opt.MaxNodes {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++

		if incumbent != nil && nd.lpObj >= res.Objective-1e-9 && rootSolved {
			continue
		}

		p := m.Prob.Clone()
		copy(p.Lower, nd.lower)
		copy(p.Upper, nd.upper)
		feasibleBounds := true
		for j := range p.Lower {
			if p.Lower[j] > p.Upper[j] {
				feasibleBounds = false
				break
			}
		}
		if !feasibleBounds {
			continue
		}
		sol, err := lp.SolveBounded(p)
		if err != nil {
			return Result{}, err
		}
		res.LPIters += sol.Iters
		switch sol.Status {
		case lp.Infeasible:
			if !rootSolved {
				return Result{Status: Infeasible, Nodes: res.Nodes, Elapsed: time.Since(start)}, nil
			}
			continue
		case lp.Unbounded:
			if !rootSolved {
				return Result{}, fmt.Errorf("ilp: relaxation unbounded")
			}
			continue
		case lp.IterLimit:
			continue
		}
		if !rootSolved {
			rootSolved = true
			rootBound = sol.Objective
		}
		if incumbent != nil && sol.Objective >= res.Objective-1e-9 {
			continue
		}

		branchVar, frac := -1, 0.0
		for j := range m.Integer {
			if !m.Integer[j] {
				continue
			}
			f := sol.X[j] - math.Floor(sol.X[j])
			d := math.Min(f, 1-f)
			if d > intTol && d > frac {
				frac, branchVar = d, j
			}
		}
		if branchVar == -1 {
			if sol.Objective < res.Objective {
				res.Objective = sol.Objective
				incumbent = append([]float64(nil), sol.X...)
			}
			continue
		}

		fl := math.Floor(sol.X[branchVar])
		up := node{
			lower: append([]float64(nil), nd.lower...),
			upper: append([]float64(nil), nd.upper...),
			lpObj: sol.Objective,
		}
		up.lower[branchVar] = fl + 1
		down := node{
			lower: append([]float64(nil), nd.lower...),
			upper: append([]float64(nil), nd.upper...),
			lpObj: sol.Objective,
		}
		down.upper[branchVar] = fl
		stack = append(stack, up, down)
	}
	res.Elapsed = time.Since(start)
	res.Bound = rootBound
	if incumbent == nil {
		if len(stack) == 0 && rootSolved {
			res.Status = Infeasible
		}
		return res, nil
	}
	res.X = incumbent
	if len(stack) == 0 {
		res.Status = Optimal
	} else {
		res.Status = Feasible
	}
	return res, nil
}
