package baselines

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/model"
)

// gcogNaive is the reference search loop: identical move selection, every
// candidate scored by a from-scratch EvaluateRouted.
func gcogNaive(in *model.Instance) GCOGResult {
	used := append([]int(nil), in.Workload.ServicesUsed()...)
	sort.Ints(used)
	p := gcogInitial(in, used)
	res := GCOGResult{}
	maxRounds := in.M()*in.V() + 16
	for ; res.Rounds < maxRounds; res.Rounds++ {
		cur := in.Evaluate(p)
		res.Evals++
		needReduce := cur.OverBudget

		bestObj := cur.Objective
		bestSvc, bestK := -1, -1
		forcedObj := math.Inf(1)
		forcedSvc, forcedK := -1, -1
		for _, svc := range used {
			if p.Count(svc) <= 1 {
				continue
			}
			for _, k := range p.NodesOf(svc) {
				p.Set(svc, k, false)
				ev := in.Evaluate(p)
				res.Evals++
				if ev.Objective < bestObj-model.ObjTol {
					bestObj, bestSvc, bestK = ev.Objective, svc, k
				}
				if ev.Objective < forcedObj {
					forcedObj, forcedSvc, forcedK = ev.Objective, svc, k
				}
				p.Set(svc, k, true)
			}
		}
		switch {
		case bestSvc != -1:
			p.Set(bestSvc, bestK, false)
		case needReduce && forcedSvc != -1:
			// No improving move but the budget still binds: take the
			// least-damaging removal.
			p.Set(forcedSvc, forcedK, false)
		default:
			return GCOGResult{Placement: p, Rounds: res.Rounds, Evals: res.Evals}
		}
	}
	res.Placement = p
	return res
}

// TestGCOGDifferential proves the incremental GC-OG search is the naive one:
// identical placements bit for bit, identical round and eval counts, across
// seeds and budgets (binding and slack). ProbeRemoval's other routing modes
// are held to scratch evaluation by model's generated edit walk.
func TestGCOGDifferential(t *testing.T) {
	budgets := []float64{4000, 9000}
	for seed := int64(1); seed <= 3; seed++ {
		for _, budget := range budgets {
			in := makeInstance(9, 35, seed, budget)
			inc := GCOG(in)
			nai := gcogNaive(in)

			label := fmt.Sprintf("seed=%d/budget=%v", seed, budget)
			if inc.Rounds != nai.Rounds || inc.Evals != nai.Evals {
				t.Fatalf("%s: effort diverges: incremental %d rounds/%d evals, naive %d/%d",
					label, inc.Rounds, inc.Evals, nai.Rounds, nai.Evals)
			}
			for i := 0; i < in.M(); i++ {
				for k := 0; k < in.V(); k++ {
					if inc.Placement.Has(i, k) != nai.Placement.Has(i, k) {
						t.Fatalf("%s: placements diverge at x(%d,%d)", label, i, k)
					}
				}
			}
			// Same placement must mean same exact objective, but assert it
			// anyway: it is the quantity the search optimizes.
			a, b := in.Evaluate(inc.Placement), in.Evaluate(nai.Placement)
			if a.Objective != b.Objective {
				t.Fatalf("%s: objectives diverge %v vs %v", label, a.Objective, b.Objective)
			}
		}
	}
}

// TestGCOGDefaultIsIncremental pins the public entry point to the fast path
// while confirming it still matches the documented naive semantics.
func TestGCOGDefaultIsIncremental(t *testing.T) {
	in := makeInstance(8, 30, 4, 6000)
	def := GCOG(in)
	nai := gcogNaive(in)
	for i := 0; i < in.M(); i++ {
		for k := 0; k < in.V(); k++ {
			if def.Placement.Has(i, k) != nai.Placement.Has(i, k) {
				t.Fatalf("default GCOG diverges from naive at x(%d,%d)", i, k)
			}
		}
	}
}
