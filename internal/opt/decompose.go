package opt

import (
	"math"
	"sort"
	"time"

	"repro/internal/model"
)

// SolveDecomposed is an extension solver exploiting the full separability
// of the star-linearized SoCL ILP: with the storage constraint relaxed, the
// problem decomposes per service into a p-median trade between instance
// count and demand latency, coupled only through the budget. It
//
//  1. computes, per service, the exact optimal node subset for each
//     instance count n (enumeration with a rigorous marginal-gain cutoff:
//     once λ·κ exceeds the remaining latency headroom L(n) − L(∞), larger
//     n cannot pay off), and
//  2. picks one option per service by exact multi-choice knapsack over the
//     budget.
//
// The result is the true ILP optimum whenever the assembled placement also
// satisfies storage (Applicable == true, Status == Optimal); otherwise the
// caller must fall back to the branch-and-bound Solve. On instances where
// it applies it is typically orders of magnitude faster — the ablation
// benchmarks quantify this.
type DecomposedResult struct {
	Result
	// Applicable reports whether the decomposition's optimum is valid: the
	// storage-relaxed optimum happened to satisfy the storage constraint.
	Applicable bool
}

// maxEnumeratedInstances caps the per-service subset enumeration depth;
// C(V, n) growth makes n beyond this impractical, and the marginal-gain
// cutoff almost always fires earlier.
const maxEnumeratedInstances = 6

// SolveDecomposed runs the decomposition. opts.TimeLimit bounds the whole
// computation; WarmStart and MaxNodes are ignored.
func SolveDecomposed(in *model.Instance, opts Options) (DecomposedResult, error) {
	if err := in.Validate(); err != nil {
		return DecomposedResult{}, err
	}
	//socllint:ignore detrand wall-clock time limit is an explicit Options knob, not hidden nondeterminism
	start := time.Now()
	s := newSolver(in) // reuse demand/cap precomputation
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}

	type option struct {
		n      int
		subset []int
		lat    float64
	}
	options := make([][]option, len(s.used))
	for si := range s.used {
		//socllint:ignore detrand wall-clock time limit is an explicit Options knob, not hidden nondeterminism
		if !deadline.IsZero() && time.Now().After(deadline) {
			//socllint:ignore detrand elapsed wall time is reported, never branched on
			return DecomposedResult{Result: Result{Status: NoSolution, Elapsed: time.Since(start)}}, nil
		}
		maxN := s.capSvc[si]
		if maxN > maxEnumeratedInstances {
			maxN = maxEnumeratedInstances
		}
		if maxN > s.V {
			maxN = s.V
		}
		linf := s.pmedianInf[si]
		prevLat := math.Inf(1)
		for n := 1; n <= maxN; n++ {
			lat, subset := s.bestSubset(si, n)
			if math.IsInf(lat, 1) {
				break
			}
			options[si] = append(options[si], option{n: n, subset: subset, lat: lat})
			// Rigorous cutoff: every further instance costs λκ but the
			// total remaining latency headroom is lat − L(∞). When the
			// headroom cannot repay even one more instance, larger n is
			// dominated.
			if s.lambda*s.kappa[si] >= (1-s.lambda)*(lat-linf)-model.ObjTol {
				break
			}
			if lat >= prevLat-model.ObjTol && n > 1 {
				break // no latency progress; κ only grows
			}
			prevLat = lat
		}
		if len(options[si]) == 0 {
			//socllint:ignore detrand elapsed wall time is reported, never branched on
			return DecomposedResult{Result: Result{Status: Infeasible, Elapsed: time.Since(start)}}, nil
		}
	}

	// Exact multi-choice knapsack by DFS with optimistic remaining bound.
	// Services ordered by descending cost spread to tighten pruning.
	order := make([]int, len(s.used))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.kappa[order[a]] > s.kappa[order[b]]
	})
	// minTail[i]: Σ over order[i:] of the cheapest option value and cost.
	n := len(order)
	minTailVal := make([]float64, n+1)
	minTailCost := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		si := order[i]
		bestVal, bestCost := math.Inf(1), math.Inf(1)
		for _, o := range options[si] {
			v := s.lambda*s.kappa[si]*float64(o.n) + (1-s.lambda)*o.lat
			if v < bestVal {
				bestVal = v
			}
			if c := s.kappa[si] * float64(o.n); c < bestCost {
				bestCost = c
			}
		}
		minTailVal[i] = minTailVal[i+1] + bestVal
		minTailCost[i] = minTailCost[i+1] + bestCost
	}

	bestTotal := math.Inf(1)
	choice := make([]int, n)
	bestChoice := make([]int, n)
	var dfs func(i int, cost, val float64)
	dfs = func(i int, cost, val float64) {
		if val+minTailVal[i] >= bestTotal-model.ObjTol {
			return
		}
		if cost+minTailCost[i] > s.budget+model.FeasTol {
			return
		}
		if i == n {
			bestTotal = val
			copy(bestChoice, choice)
			return
		}
		si := order[i]
		for oi, o := range options[si] {
			c := s.kappa[si] * float64(o.n)
			if cost+c > s.budget+model.FeasTol {
				continue
			}
			choice[i] = oi
			dfs(i+1, cost+c, val+s.lambda*c+(1-s.lambda)*o.lat)
		}
	}
	dfs(0, 0, 0)
	if math.IsInf(bestTotal, 1) {
		//socllint:ignore detrand elapsed wall time is reported, never branched on
		return DecomposedResult{Result: Result{Status: Infeasible, Elapsed: time.Since(start)}}, nil
	}

	p := model.NewPlacement(in.M(), s.V)
	for i, si := range order {
		svc := s.used[si]
		for _, k := range options[si][bestChoice[i]].subset {
			p.Set(svc, k, true)
		}
	}
	res := DecomposedResult{
		Result: Result{
			Status:        Optimal,
			Placement:     p,
			StarObjective: bestTotal,
			Bound:         bestTotal,
			//socllint:ignore detrand elapsed wall time is reported, never branched on
			Elapsed: time.Since(start),
		},
		Applicable: in.CheckStorage(p) == -1,
	}
	if !res.Applicable {
		// The storage-relaxed optimum violates storage: bestTotal is still
		// a valid lower bound on the true optimum, but the placement isn't
		// a certified solution.
		res.Status = Feasible
	}
	return res, nil
}

// bestSubset finds the exact minimum total demand latency for service si
// using exactly n instances, returning the latency and the argmin node
// subset. Mirrors computePMedianBounds but keeps the winning subset.
func (s *solver) bestSubset(si, n int) (float64, []int) {
	D := s.demands[si]
	cur := make([]float64, len(D))
	pick := make([]int, 0, n)
	best := math.Inf(1)
	bestPick := make([]int, n)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == n {
			tot := 0.0
			for _, c := range cur {
				tot += c
			}
			if tot < best {
				best = tot
				copy(bestPick, pick)
			}
			return
		}
		for k := start; k <= s.V-(n-depth); k++ {
			var saved []float64
			var savedIdx []int
			for di, d := range D {
				if d.coef[k] < cur[di] {
					saved = append(saved, cur[di])
					savedIdx = append(savedIdx, di)
					cur[di] = d.coef[k]
				}
			}
			pick = append(pick, k)
			rec(k+1, depth+1)
			pick = pick[:len(pick)-1]
			for i, di := range savedIdx {
				cur[di] = saved[i]
			}
		}
	}
	for di := range cur {
		cur[di] = math.Inf(1)
	}
	rec(0, 0)
	if math.IsInf(best, 1) {
		return best, nil
	}
	out := make([]int, n)
	copy(out, bestPick)
	return best, out
}
