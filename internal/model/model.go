// Package model defines the shared optimization instance, decision
// representation, and — critically — the single evaluator used to score
// every algorithm in this repository (SoCL, the exact optimizer, and all
// baselines), implementing the cost model (Eq. 1), the completion-time model
// (Eq. 2), and the weighted objective (Eq. 3/8) of the SoCL paper.
//
// Routing is solved exactly per request by dynamic programming over the
// layered placement graph: given a deployment x, the minimum-latency
// assignment of chain steps to hosting nodes is a shortest path through
// |chain| layers of candidate nodes, which the paper's routing subproblem
// reduces to once provisioning is fixed.
package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/msvc"
	"repro/internal/topology"
)

// Instance is one SoCL problem instance: the substrate network, the request
// workload, and the objective/constraint parameters of Definitions 1–2.
type Instance struct {
	Graph    *topology.Graph
	Workload *msvc.Workload

	Lambda float64 // λ ∈ [0,1]: weight of deployment cost vs completion time
	Budget float64 // 𝒦^max: global deployment budget (constraint 5)

	// Cloud, when non-nil, serves as the fallback for requests whose chain
	// hits a microservice with no edge instance: the whole request is
	// offloaded to the cloud at WAN latency instead of failing (Section
	// IV-C). When nil, such requests count as MissingInstances with +Inf
	// latency.
	Cloud *CloudConfig

	// ColdStart, when non-nil, charges the serverless cold-start penalty on
	// chain steps that execute on instances the model marks cold (see
	// ColdStartModel). Nil — the default — preserves the legacy
	// completion-time model bitwise. The cloud fallback is always warm.
	ColdStart *ColdStartModel
}

// Validate checks instance invariants.
func (in *Instance) Validate() error {
	if in.Graph == nil || in.Workload == nil || in.Workload.Catalog == nil {
		return fmt.Errorf("model: nil graph or workload")
	}
	if in.Lambda < 0 || in.Lambda > 1 {
		return fmt.Errorf("model: λ=%v outside [0,1]", in.Lambda)
	}
	if in.Budget <= 0 {
		return fmt.Errorf("model: non-positive budget %v", in.Budget)
	}
	for i := range in.Workload.Requests {
		if err := in.Workload.Requests[i].Validate(in.Workload.Catalog.Len(), in.Graph.N()); err != nil {
			return err
		}
	}
	return nil
}

// M returns |M| and V returns |V| for the instance.
func (in *Instance) M() int { return in.Workload.Catalog.Len() }

// V returns the number of edge servers.
func (in *Instance) V() int { return in.Graph.N() }

// Placement is the deployment decision x(i,k) ∈ {0,1}: X[i][k] is true when
// an instance of microservice i runs on node k.
type Placement struct {
	X [][]bool
}

// NewPlacement returns an all-zero placement for m services over v nodes.
func NewPlacement(m, v int) Placement {
	x := make([][]bool, m)
	for i := range x {
		x[i] = make([]bool, v)
	}
	return Placement{X: x}
}

// Clone deep-copies the placement.
func (p Placement) Clone() Placement {
	q := NewPlacement(len(p.X), lenRow(p.X))
	for i := range p.X {
		copy(q.X[i], p.X[i])
	}
	return q
}

// SamePlacement reports whether a and b are the same placement in memory —
// one Placement value shared, not two with equal cells.
func SamePlacement(a, b Placement) bool { return sameStorage(a.X, b.X) }

func lenRow(x [][]bool) int {
	if len(x) == 0 {
		return 0
	}
	return len(x[0])
}

// Set deploys (or removes, val=false) service i on node k.
func (p Placement) Set(i, k int, val bool) { p.X[i][k] = val }

// Has reports whether service i is deployed on node k.
func (p Placement) Has(i, k int) bool { return p.X[i][k] }

// Count returns the number of instances of service i.
func (p Placement) Count(i int) int {
	n := 0
	for _, v := range p.X[i] {
		if v {
			n++
		}
	}
	return n
}

// NodesOf returns the nodes hosting service i, ascending.
func (p Placement) NodesOf(i int) []int {
	var out []int
	for k, v := range p.X[i] {
		if v {
			out = append(out, k)
		}
	}
	return out
}

// Instances returns the total number of deployed instances.
func (p Placement) Instances() int {
	n := 0
	for i := range p.X {
		n += p.Count(i)
	}
	return n
}

// DeployCost returns Σ_k 𝒦_k = Σ_{i,k} κ(m_i)·x(i,k) (Eq. 1 summed).
func (in *Instance) DeployCost(p Placement) float64 {
	cost := 0.0
	for i := range p.X {
		kappa := in.Workload.Catalog.Service(i).DeployCost
		for _, on := range p.X[i] {
			if on {
				cost += kappa
			}
		}
	}
	return cost
}

// StorageUsed returns Σ_i x(i,k)·φ(m_i) for node k.
func (in *Instance) StorageUsed(p Placement, k int) float64 {
	s := 0.0
	for i := range p.X {
		if p.X[i][k] {
			s += in.Workload.Catalog.Service(i).Storage
		}
	}
	return s
}

// CheckStorage verifies constraint (6) on every node; it returns the first
// violating node or -1.
func (in *Instance) CheckStorage(p Placement) int {
	for k := 0; k < in.V(); k++ {
		if in.StorageUsed(p, k) > in.Graph.Node(k).Storage+FeasTol {
			return k
		}
	}
	return -1
}

// CheckBudget verifies constraint (5).
func (in *Instance) CheckBudget(p Placement) bool {
	return in.DeployCost(p) <= in.Budget+FeasTol
}

// Assignment is a per-request routing decision: Nodes[t] is the edge server
// executing the t-th microservice of the request's chain (the y(h,i,k)
// variables restricted to the chain).
type Assignment struct {
	Nodes []int
}

// ErrNoInstance is returned when a chain step has no deployed instance
// anywhere — constraint (9)/(10) is unsatisfiable under the placement.
type ErrNoInstance struct {
	Request int
	Service int
}

func (e ErrNoInstance) Error() string {
	return fmt.Sprintf("model: request %d needs service %d but no instance is deployed", e.Request, e.Service)
}

// IsNoInstance reports whether err is (or wraps) an ErrNoInstance. Routing
// callers must branch on this — not on err != nil — because the sentinel is
// a domain signal (constraints (9)/(10) unsatisfiable under the placement),
// not a failure, and wrapped sentinels never compare equal with ==. The
// routers return the sentinel unwrapped, so a type assertion answers the
// routing miss of every probe before errors.As pays for unwrapping.
func IsNoInstance(err error) bool {
	if _, ok := err.(ErrNoInstance); ok {
		return true
	}
	var e ErrNoInstance
	return errors.As(err, &e)
}

// CompletionTime computes 𝒟_h (Eq. 2) exactly for a concrete assignment:
// ingress transfer d_in, per-step compute q/c, chain-edge transfers over
// minimum-time paths, and egress d_out over the minimum-hop return path.
func (in *Instance) CompletionTime(req *msvc.Request, a Assignment) (float64, error) {
	if len(a.Nodes) != len(req.Chain) {
		return 0, fmt.Errorf("model: assignment length %d != chain length %d", len(a.Nodes), len(req.Chain))
	}
	g := in.Graph
	d := g.TransferTime(req.Home, a.Nodes[0], req.DataIn) // d_in (0 if same node)
	for t, k := range a.Nodes {
		if k < 0 || k >= g.N() {
			return 0, fmt.Errorf("model: assignment node %d out of range", k)
		}
		d += in.stepTime(req.Chain[t], k) // d_c (+ cold start, if modeled)
		if t > 0 {
			d += g.TransferTime(a.Nodes[t-1], k, req.EdgeData[t-1]) // d_l
		}
	}
	last := a.Nodes[len(a.Nodes)-1]
	d += req.DataOut * g.HopPathCost(last, req.Home) // d_out over π*
	if math.IsInf(d, 1) || math.IsNaN(d) {
		return math.Inf(1), nil
	}
	return d, nil
}

// RouteOptimal finds the minimum-completion-time assignment for req under
// placement p by dynamic programming over chain layers (O(L·|V|²)).
// It returns ErrNoInstance if some chain step has no instance.
//
//socllint:sentinel ErrNoInstance
func (in *Instance) RouteOptimal(req *msvc.Request, p Placement) (Assignment, float64, error) {
	return in.routeOptimal(req, p, &RouteScratch{})
}

//socllint:sentinel ErrNoInstance
func (in *Instance) routeOptimal(req *msvc.Request, cand nodeLister, sc *RouteScratch) (Assignment, float64, error) {
	g := in.Graph
	L := len(req.Chain)

	// Candidate layers.
	layers := sc.layerBuf(L)
	for t, s := range req.Chain {
		layers[t] = cand.NodesOf(s)
		if len(layers[t]) == 0 {
			return Assignment{}, 0, ErrNoInstance{Request: req.ID, Service: s}
		}
	}

	// DP forward pass.
	cost := sc.floats(&sc.cost, len(layers[0]))
	for j, k := range layers[0] {
		cost[j] = g.TransferTime(req.Home, k, req.DataIn) +
			in.stepTime(req.Chain[0], k)
	}
	for t := 1; t < L; t++ {
		next := sc.floats(&sc.next, len(layers[t]))
		backT := sc.backRow(t, len(layers[t]))
		for j, k := range layers[t] {
			best, bestArg := math.Inf(1), -1
			for pj, pk := range layers[t-1] {
				c := cost[pj] + g.TransferTime(pk, k, req.EdgeData[t-1])
				if c < best {
					best, bestArg = c, pj
				}
			}
			next[j] = best + in.stepTime(req.Chain[t], k)
			backT[j] = bestArg
		}
		sc.cost, sc.next = sc.next, sc.cost
		cost = next
	}

	// Terminal: add d_out and pick the best final node.
	best, bestArg := math.Inf(1), -1
	for j, k := range layers[L-1] {
		c := cost[j] + req.DataOut*g.HopPathCost(k, req.Home)
		if c < best {
			best, bestArg = c, j
		}
	}
	if bestArg == -1 || math.IsInf(best, 1) {
		// All candidate chains are disconnected from the user.
		return Assignment{}, math.Inf(1), nil
	}

	// Backtrack. The Nodes slice is freshly allocated: callers cache
	// returned assignments beyond the next routing call.
	nodes := make([]int, L)
	j := bestArg
	for t := L - 1; t >= 0; t-- {
		nodes[t] = layers[t][j]
		if t > 0 {
			j = sc.back[t][j]
		}
	}
	return Assignment{Nodes: nodes}, best, nil
}

// routeOptimalLat is routeOptimal without path reconstruction: the same DP
// forward pass (identical iteration order, so an identical float result) but
// no backpointer bookkeeping and no Nodes allocation. It serves callers that
// only consume the completion time — the delta engine's removal probes score
// thousands of counterfactual placements per search round and discard every
// path.
//
//socllint:sentinel ErrNoInstance
func (in *Instance) routeOptimalLat(req *msvc.Request, cand nodeLister, sc *RouteScratch) (float64, error) {
	g := in.Graph
	L := len(req.Chain)

	layers := sc.layerBuf(L)
	for t, s := range req.Chain {
		layers[t] = cand.NodesOf(s)
		if len(layers[t]) == 0 {
			return 0, ErrNoInstance{Request: req.ID, Service: s}
		}
	}

	cost := sc.floats(&sc.cost, len(layers[0]))
	for j, k := range layers[0] {
		cost[j] = g.TransferTime(req.Home, k, req.DataIn) +
			in.stepTime(req.Chain[0], k)
	}
	for t := 1; t < L; t++ {
		next := sc.floats(&sc.next, len(layers[t]))
		for j, k := range layers[t] {
			best := math.Inf(1)
			for pj, pk := range layers[t-1] {
				if c := cost[pj] + g.TransferTime(pk, k, req.EdgeData[t-1]); c < best {
					best = c
				}
			}
			next[j] = best + in.stepTime(req.Chain[t], k)
		}
		sc.cost, sc.next = sc.next, sc.cost
		cost = next
	}

	best := math.Inf(1)
	for j, k := range layers[L-1] {
		if c := cost[j] + req.DataOut*g.HopPathCost(k, req.Home); c < best {
			best = c
		}
	}
	return best, nil // +Inf when every candidate chain is disconnected
}

// RouteGreedy assigns each chain step to the hosting node with the fastest
// virtual link from the previous location (nearest-instance routing). Used
// as the ablation counterpart of RouteOptimal.
//
//socllint:sentinel ErrNoInstance
func (in *Instance) RouteGreedy(req *msvc.Request, p Placement) (Assignment, float64, error) {
	return in.routeGreedy(req, p)
}

//socllint:sentinel ErrNoInstance
func (in *Instance) routeGreedy(req *msvc.Request, cand nodeLister) (Assignment, float64, error) {
	g := in.Graph
	nodes := make([]int, len(req.Chain))
	prev := req.Home
	for t, s := range req.Chain {
		cands := cand.NodesOf(s)
		if len(cands) == 0 {
			return Assignment{}, 0, ErrNoInstance{Request: req.ID, Service: s}
		}
		best, bestK := math.Inf(1), cands[0]
		for _, k := range cands {
			if c := g.PathCost(prev, k); c < best {
				best, bestK = c, k
			}
		}
		nodes[t] = bestK
		prev = bestK
	}
	a := Assignment{Nodes: nodes}
	d, err := in.CompletionTime(req, a)
	return a, d, err
}

// RoutingMode selects the routing policy used to score a placement. The
// paper's algorithms each bring their own request routing: SoCL optimizes
// routing (here: exact DP over the chain layers), JDR routes greedily to
// the nearest instance, and RP routes randomly.
type RoutingMode int

// Routing policies.
const (
	RouteModeOptimal RoutingMode = iota
	RouteModeGreedy
	RouteModeRandom
)

func (m RoutingMode) String() string {
	switch m {
	case RouteModeOptimal:
		return "optimal"
	case RouteModeGreedy:
		return "greedy"
	case RouteModeRandom:
		return "random"
	default:
		return "?"
	}
}

// routeRandom assigns each chain step to a uniformly random hosting node —
// the routing policy of the RP baseline. The rng must be supplied so runs
// stay reproducible.
//
//socllint:sentinel ErrNoInstance
func (in *Instance) routeRandom(req *msvc.Request, cand nodeLister, r *rand.Rand) (Assignment, float64, error) {
	nodes := make([]int, len(req.Chain))
	for t, s := range req.Chain {
		cands := cand.NodesOf(s)
		if len(cands) == 0 {
			return Assignment{}, 0, ErrNoInstance{Request: req.ID, Service: s}
		}
		nodes[t] = cands[r.Intn(len(cands))]
	}
	a := Assignment{Nodes: nodes}
	d, err := in.CompletionTime(req, a)
	return a, d, err
}

// Evaluation is the scored outcome of a placement: per-request latencies
// (optimal routing), totals, and the weighted objective.
type Evaluation struct {
	Placement  Placement
	Routes     []Assignment
	Latencies  []float64 // 𝒟_h per request
	LatencySum float64   // Σ_h 𝒟_h
	Cost       float64   // Σ_k 𝒦_k
	Objective  float64   // λ·Cost + (1−λ)·LatencySum

	// Violations. MissingInstances and Unroutable split the two ways a
	// request can go unserved: no instance of some chain service exists
	// anywhere (ErrNoInstance, constraint (9)/(10) unsatisfiable — the
	// provisioning failed), versus instances exist but every candidate chain
	// is disconnected from the user on the current substrate (+Inf latency
	// with no sentinel — the network failed). The distinction matters under
	// fault masking: crashes that cut links produce Unroutable requests that
	// a placement-level repair cannot fix, while lost instances produce
	// MissingInstances that re-provisioning can.
	MissingInstances  int // requests hitting ErrNoInstance (no cloud fallback)
	Unroutable        int // requests routed to +Inf: instances exist but are unreachable
	CloudServed       int // requests offloaded to the cloud fallback
	DeadlineViolated  int // requests with 𝒟_h > 𝒟_h^max
	StorageViolatedAt int // first node violating (6), or -1
	OverBudget        bool
}

// Feasible reports whether the evaluation satisfies all hard constraints.
func (e *Evaluation) Feasible() bool {
	return e.MissingInstances == 0 && e.Unroutable == 0 && e.DeadlineViolated == 0 &&
		e.StorageViolatedAt == -1 && !e.OverBudget
}

// Unserved returns the number of requests served neither at the edge nor by
// the cloud fallback: missing-instance plus unroutable requests.
func (e *Evaluation) Unserved() int { return e.MissingInstances + e.Unroutable }

// Evaluate scores placement p with optimal routing for every request.
// Requests whose services lack instances contribute +Inf latency and are
// counted in MissingInstances rather than aborting, so callers can score
// infeasible intermediate states.
func (in *Instance) Evaluate(p Placement) *Evaluation {
	return in.EvaluateRouted(p, RouteModeOptimal, 0)
}

// EvaluateRouted scores placement p under an explicit routing policy. The
// seed matters only for RouteModeRandom.
func (in *Instance) EvaluateRouted(p Placement, mode RoutingMode, seed int64) *Evaluation {
	reqs := in.Workload.Requests
	ev := &Evaluation{
		Placement:         p,
		Routes:            make([]Assignment, len(reqs)),
		Latencies:         make([]float64, len(reqs)),
		Cost:              in.DeployCost(p),
		StorageViolatedAt: in.CheckStorage(p),
	}
	ev.OverBudget = !in.CheckBudget(p)

	// One index serves every request: candidate lists are built once per
	// service instead of once per (request, step).
	ix := NewPlacementIndex(p)
	epoch0 := ix.Epoch() // routing must never mutate the index (self-check)

	sc := &RouteScratch{}
	for h := range reqs {
		req := &reqs[h]
		var (
			a   Assignment
			d   float64
			err error
		)
		switch mode {
		case RouteModeGreedy:
			a, d, err = in.routeGreedy(req, ix)
		case RouteModeRandom:
			// An independent per-request stream: a request's route does not
			// depend on which requests were routed before it.
			rng := rand.New(rand.NewSource(seed + int64(h)*0x9e3779b9))
			a, d, err = in.routeRandom(req, ix, rng)
		default:
			a, d, err = in.routeOptimal(req, ix, sc)
		}
		switch {
		case err == nil:
			ev.Routes[h] = a
			ev.Latencies[h] = d
			// A +Inf latency without the sentinel means every candidate
			// chain is disconnected from the user: unroutable, not missing.
			if math.IsInf(d, 1) {
				ev.Unroutable++
			}
			if d > req.Deadline+FeasTol {
				ev.DeadlineViolated++
			}
		case IsNoInstance(err) && in.Cloud != nil:
			// Routing fails only with the ErrNoInstance sentinel; the check
			// is errors.As-based so a future wrapped sentinel keeps working.
			// Any other error would be a routing bug and counts as missing.
			d = in.Cloud.CloudCompletionTime(in.Workload.Catalog, req)
			ev.Latencies[h] = d
			ev.CloudServed++
			if d > req.Deadline+FeasTol {
				ev.DeadlineViolated++
			}
		default:
			ev.Latencies[h] = math.Inf(1)
			ev.MissingInstances++
		}
	}

	ev.LatencySum = 0
	for _, d := range ev.Latencies {
		ev.LatencySum += d
	}
	ev.Objective = in.Objective(ev.Cost, ev.LatencySum)
	in.selfCheckEvaluation(ev, ix, epoch0, mode, seed)
	return ev
}

// Objective combines a deployment cost and a latency sum per Definition 1:
// λ·Σ𝒦 + (1−λ)·Σ𝒟.
func (in *Instance) Objective(cost, latencySum float64) float64 {
	// Guard 0·Inf = NaN when λ ∈ {0,1} and the other term is infinite.
	c := 0.0
	if in.Lambda > 0 {
		c = in.Lambda * cost
	}
	l := 0.0
	if in.Lambda < 1 {
		l = (1 - in.Lambda) * latencySum
	}
	return c + l
}

// StarCoef returns the star-linearized latency coefficient d̃(h, step, k)
// used by the ILP formulation (Definition 4): the incoming data volume of
// the step is assumed to travel from the user's home server to k, plus
// compute time, plus — for the final step — the egress return time. The
// evaluator remains exact; this approximation only shapes the ILP objective.
func (in *Instance) StarCoef(req *msvc.Request, step, k int) float64 {
	g := in.Graph
	var data float64
	if step == 0 {
		data = req.DataIn
	} else {
		data = req.EdgeData[step-1]
	}
	c := g.TransferTime(req.Home, k, data)
	c += in.stepTime(req.Chain[step], k)
	if step == len(req.Chain)-1 {
		c += req.DataOut * g.HopPathCost(k, req.Home)
	}
	return c
}
