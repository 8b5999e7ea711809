package ilp

import (
	"math"

	"repro/internal/lp"
	"repro/internal/model"
)

// VarMap records how SoCL decision variables map onto MIP columns so that a
// solution vector can be decoded back into a model.Placement.
type VarMap struct {
	NumServices int
	NumNodes    int
	// x(i,k) lives at column i·NumNodes + k.
	// y(h,t,k) lives at YBase[h] + t·NumNodes + k.
	YBase []int
	Total int
}

// XIdx returns the column of x(i,k).
func (vm *VarMap) XIdx(i, k int) int { return i*vm.NumNodes + k }

// YIdx returns the column of y(h, step t, k).
func (vm *VarMap) YIdx(h, t, k int) int { return vm.YBase[h] + t*vm.NumNodes + k }

// Placement decodes the x block of a solution vector.
func (vm *VarMap) Placement(x []float64) model.Placement {
	p := model.NewPlacement(vm.NumServices, vm.NumNodes)
	for i := 0; i < vm.NumServices; i++ {
		for k := 0; k < vm.NumNodes; k++ {
			if x[vm.XIdx(i, k)] > 0.5 {
				p.Set(i, k, true)
			}
		}
	}
	return p
}

// BuildSoCLBounded constructs the Definition-4 ILP for an instance:
//
//	min  λ Σ κ(m_i)·x(i,k) + (1−λ) Σ y(h,i,k)·d̃(h,i,k)
//	s.t. Σ_k y(h,t,k) = 1                        (9)  per request step
//	     y(h,t,k) ≤ x(i,k)                       (10)
//	     Σ_i φ(m_i)·x(i,k) ≤ Φ(v_k)              (6)  per node
//	     Σ κ(m_i)·x(i,k) ≤ 𝒦^max                 (5)
//	     Σ_t,k y(h,t,k)·d̃ ≤ 𝒟_h^max              (4)  when finite
//	     x, y ∈ {0,1}
//
// Latency coefficients d̃ use the star linearization (model.StarCoef); see
// DESIGN.md §6. Binaries are [0,1] variable bounds, not rows, and a
// disconnected (request step, node) pair gets a zero upper bound instead of
// an infinite coefficient, which keeps the LP finite.
func BuildSoCLBounded(in *model.Instance) (*BoundedMIP, *VarMap) {
	M, V := in.M(), in.V()
	reqs := in.Workload.Requests

	vm := &VarMap{NumServices: M, NumNodes: V, YBase: make([]int, len(reqs))}
	n := M * V
	for h := range reqs {
		vm.YBase[h] = n
		n += len(reqs[h].Chain) * V
	}
	vm.Total = n

	p := lp.NewBoundedProblem(n)
	integer := make([]bool, n)
	for j := range integer {
		integer[j] = true
		p.SetBounds(j, 0, 1)
	}

	for i := 0; i < M; i++ {
		kappa := in.Workload.Catalog.Service(i).DeployCost
		for k := 0; k < V; k++ {
			p.SetObjective(vm.XIdx(i, k), in.Lambda*kappa)
		}
	}
	for h := range reqs {
		req := &reqs[h]
		for t := range req.Chain {
			for k := 0; k < V; k++ {
				coef := in.StarCoef(req, t, k)
				if math.IsInf(coef, 1) {
					p.SetBounds(vm.YIdx(h, t, k), 0, 0) // unreachable pair
					continue
				}
				p.SetObjective(vm.YIdx(h, t, k), (1-in.Lambda)*coef)
			}
		}
	}

	// (9) assignment; (10) linking.
	for h := range reqs {
		req := &reqs[h]
		for t, svc := range req.Chain {
			row := make(map[int]float64, V)
			for k := 0; k < V; k++ {
				row[vm.YIdx(h, t, k)] = 1
			}
			p.AddConstraint(row, lp.EQ, 1)
			for k := 0; k < V; k++ {
				p.AddConstraint(map[int]float64{
					vm.YIdx(h, t, k): 1,
					vm.XIdx(svc, k):  -1,
				}, lp.LE, 0)
			}
		}
	}
	// (6) storage per node.
	for k := 0; k < V; k++ {
		row := make(map[int]float64, M)
		for i := 0; i < M; i++ {
			row[vm.XIdx(i, k)] = in.Workload.Catalog.Service(i).Storage
		}
		p.AddConstraint(row, lp.LE, in.Graph.Node(k).Storage)
	}
	// (5) budget.
	budgetRow := make(map[int]float64, M*V)
	for i := 0; i < M; i++ {
		kappa := in.Workload.Catalog.Service(i).DeployCost
		for k := 0; k < V; k++ {
			budgetRow[vm.XIdx(i, k)] = kappa
		}
	}
	p.AddConstraint(budgetRow, lp.LE, in.Budget)
	// (4) per-request deadline on the linearized latency, when finite.
	for h := range reqs {
		req := &reqs[h]
		if math.IsInf(req.Deadline, 1) {
			continue
		}
		row := make(map[int]float64)
		for t := range req.Chain {
			for k := 0; k < V; k++ {
				if c := in.StarCoef(req, t, k); !math.IsInf(c, 1) {
					row[vm.YIdx(h, t, k)] = c
				}
			}
		}
		p.AddConstraint(row, lp.LE, req.Deadline)
	}
	return &BoundedMIP{Prob: p, Integer: integer}, vm
}

// SolveSoCL validates in, builds its Definition-4 ILP, solves it and decodes
// the deployment of the incumbent. The placement is the zero value when the
// search ends without an incumbent (Infeasible, NoSolution). This is the
// exact optimizer behind the paper's OPT (Figs. 2 and 7).
func SolveSoCL(in *model.Instance, opt Options) (Result, model.Placement, error) {
	if err := in.Validate(); err != nil {
		return Result{}, model.Placement{}, err
	}
	m, vm := BuildSoCLBounded(in)
	res, err := SolveBounded(m, opt)
	if err != nil || res.X == nil {
		return res, model.Placement{}, err
	}
	return res, vm.Placement(res.X), nil
}
