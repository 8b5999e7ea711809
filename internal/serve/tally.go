package serve

import (
	"slices"

	"repro/internal/model"
	"repro/internal/msvc"
)

// useCounts is what the lifecycle and the cold-step column read of an
// epoch's evaluation, kept as counts that move only with what changed:
// steps[s][k] is the number of chain steps the counted routes execute on
// instance (s, k), demand[s] the number of active requests whose chain
// contains s. routes[h] is the route counted for active request h — the
// evaluation's own Nodes slice (model.EvalView.RouteNodes), whose identity
// tells a tally which routes changed: an evaluator never rewrites a route it
// published, and holding the slice keeps its address from being reused by
// another.
type useCounts struct {
	steps  [][]int
	demand []int
	routes [][]int
	// usedGen is bumped whenever the set of instances with a counted step
	// may have changed: a step count crossed zero, or a recount ran.
	usedGen uint64
	// stale: the counts were dropped, and the next tally recounts them from
	// scratch — what a daemon that had just been built would derive.
	stale bool
}

func newUseCounts(m, v int) *useCounts {
	u := &useCounts{steps: make([][]int, m), demand: make([]int, m)}
	for i := range u.steps {
		u.steps[i] = make([]int, v)
	}
	return u
}

// arrive counts an admitted request's demand; its route is counted by the
// next tally.
func (u *useCounts) arrive(chain []int) {
	u.routes = append(u.routes, nil)
	u.addDemand(chain, 1)
}

// depart takes active request h out of the counts; the caller then removes
// routes[h] along with the request.
func (u *useCounts) depart(h int, chain []int) {
	u.addSteps(u.routes[h], chain, -1)
	u.addDemand(chain, -1)
}

func (u *useCounts) addDemand(chain []int, delta int) {
	for t, s := range chain {
		if !slices.Contains(chain[:t], s) {
			u.demand[s] += delta
		}
	}
}

func (u *useCounts) addSteps(nodes, chain []int, delta int) {
	for t, k := range nodes {
		c := &u.steps[chain[t]][k]
		*c += delta
		if *c == 0 || *c == delta { // the count reached or left zero
			u.usedGen++
		}
	}
}

// routeOf is request h's route in v, nil when v is.
func routeOf(v model.EvalView, h int) []int {
	if v == nil {
		return nil
	}
	return v.RouteNodes(h)
}

// tally brings the step counts to v's routes over active (v nil: nothing
// served), recounting only the requests whose route changed identity. The
// bound evaluator is read through its concrete type: one inlined call a
// request, not an interface call.
func (u *useCounts) tally(v model.EvalView, active []msvc.Request) {
	if u.stale {
		u.recount(v, active)
		return
	}
	de, _ := v.(*model.DeltaEvaluator)
	for h := range active {
		var nodes []int
		if de != nil {
			nodes = de.RouteNodes(h)
		} else {
			nodes = routeOf(v, h)
		}
		old := u.routes[h]
		if len(nodes) == len(old) && (len(nodes) == 0 || &nodes[0] == &old[0]) {
			continue
		}
		u.addSteps(old, active[h].Chain, -1)
		u.addSteps(nodes, active[h].Chain, 1)
		u.routes[h] = nodes
	}
}

// recount derives the counts from scratch.
func (u *useCounts) recount(v model.EvalView, active []msvc.Request) {
	for i := range u.steps {
		clear(u.steps[i])
	}
	clear(u.demand)
	u.usedGen++
	u.routes = u.routes[:0]
	for h := range active {
		u.routes = append(u.routes, routeOf(v, h))
		u.addSteps(u.routes[h], active[h].Chain, 1)
		u.addDemand(active[h].Chain, 1)
	}
	u.stale = false
}

// coldSteps is the number of counted chain steps on an instance cold is
// pricing.
func (u *useCounts) coldSteps(cold *model.ColdStartModel) int {
	n := 0
	for s := range u.steps {
		for k, c := range u.steps[s] {
			if c > 0 && cold.IsCold(s, k) {
				n += c
			}
		}
	}
	return n
}
