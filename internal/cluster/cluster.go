// Package cluster is a discrete-event runtime emulation of the paper's
// Kubernetes testbed, one fidelity level below package sim's analytic
// model. Where sim prices latency with closed-form transfer and compute
// times, cluster *executes* every request through the infrastructure:
//
//   - each edge node is a FIFO processor serving microservice steps at its
//     compute rate;
//   - each physical link is a FIFO channel serializing the transfers that
//     cross it, so network contention emerges from the event timeline
//     instead of a pricing formula;
//   - placements materialize as containers with a cold-start delay: a
//     newly deployed instance only serves after ColdStart seconds, which
//     is what makes placement churn (and the online solver's warm
//     retention) matter;
//   - at every slot boundary the algorithm under test re-plans from the
//     requests observed during the previous slot — the paper's "observed
//     system state and current user demand".
//
// The simulation is deterministic for a given seed.
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Config parameterizes a cluster run.
type Config struct {
	Graph   *topology.Graph
	Catalog *msvc.Catalog

	NumUsers    int
	SlotSeconds float64 // re-planning interval (paper: 5 min = 300 s)
	Horizon     float64 // total simulated seconds
	// MeanInterarrival is the mean seconds between a user's requests.
	MeanInterarrival float64
	MoveProb         float64 // per-slot user mobility probability

	ColdStart float64 // seconds before a new container serves traffic

	Lambda float64
	Budget float64

	Workload msvc.WorkloadConfig // data-volume ranges (NumUsers ignored)

	Seed int64
}

// DefaultConfig mirrors sim.DefaultConfig at cluster fidelity: 5-minute
// slots, ~5-minute request interarrivals, 30-second container cold starts.
func DefaultConfig(g *topology.Graph, cat *msvc.Catalog, users int, seed int64) Config {
	base := sim.DefaultConfig(g, cat, users, seed)
	return Config{
		Graph: g, Catalog: cat,
		NumUsers:         users,
		SlotSeconds:      base.SlotMinutes * 60,
		Horizon:          base.DurationMinutes * 60,
		MeanInterarrival: base.MeanInterarrival * 60,
		MoveProb:         base.MoveProb,
		ColdStart:        30,
		Lambda:           base.Lambda,
		Budget:           base.Budget,
		Workload:         base.Workload,
		Seed:             seed,
	}
}

// Result aggregates a cluster run.
type Result struct {
	Algorithm string

	Sojourns   []float64 // per-completed-request end-to-end times (s)
	Completed  int
	Unserved   int // requests unroutable at admission (no container, dead link)
	ColdStarts int // containers launched after the first slot
	// BusyFraction[k] is node k's busy time divided by the horizon.
	BusyFraction []float64
	// SlotCosts records the deployment cost of each slot's placement.
	SlotCosts []float64
}

// MeanSojourn returns the average completed-request sojourn.
func (r *Result) MeanSojourn() float64 { return stats.Mean(r.Sojourns) }

// P95Sojourn returns the 95th-percentile sojourn (0 when empty).
func (r *Result) P95Sojourn() float64 {
	if len(r.Sojourns) == 0 {
		return 0
	}
	return stats.Percentile(r.Sojourns, 95)
}

// MaxSojourn returns the maximum sojourn (0 when empty).
func (r *Result) MaxSojourn() float64 {
	if len(r.Sojourns) == 0 {
		return 0
	}
	return stats.Max(r.Sojourns)
}

// --- event machinery ---

type eventKind int

const (
	evArrival  eventKind = iota // a request enters the system
	evLegDone                   // one link leg of a transfer finished
	evStepDone                  // a compute step finished
	evSlot                      // slot boundary: observe, re-plan, deploy
)

type event struct {
	at   float64
	seq  int64 // tie-breaker for determinism
	kind eventKind
	req  *liveRequest
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// liveRequest tracks a request's progress through its chain.
type liveRequest struct {
	req     msvc.Request
	arrived float64
	// route[t] is the node executing chain step t (fixed at admission).
	route []int
	// phase: the request alternates transfer legs and compute steps.
	step    int   // current chain step index
	legs    []leg // remaining link legs of the current transfer
	retired bool
}

// leg is one link hop of a transfer.
type leg struct {
	a, b int
	gb   float64
}

// container is a deployed service instance; ready is when it starts
// serving.
type container struct {
	ready float64
}

type runtime struct {
	cfg    Config
	algo   sim.Algorithm
	rng    *rand.Rand
	now    float64
	seq    int64
	events eventQueue

	// Infrastructure state.
	nodeFree []float64 // node k's processor is free from this time
	nodeBusy []float64 // accumulated busy seconds
	linkFree map[[2]int]float64
	// containers[svc][node] → container (present = deployed).
	containers []map[int]*container

	homes    []int
	observed []msvc.Request // requests seen this slot (for next re-plan)

	res *Result
}

// Run executes algo over the configured horizon at cluster fidelity.
func Run(cfg Config, algo sim.Algorithm) (*Result, error) {
	if cfg.Graph == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("cluster: nil graph or catalog")
	}
	if cfg.NumUsers <= 0 || cfg.SlotSeconds <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("cluster: non-positive sizing")
	}
	if len(cfg.Catalog.Flows()) == 0 {
		return nil, fmt.Errorf("cluster: catalog has no flows")
	}
	if cfg.MeanInterarrival <= 0 {
		cfg.MeanInterarrival = cfg.SlotSeconds
	}
	rt := &runtime{
		cfg:      cfg,
		algo:     algo,
		rng:      stats.NewRand(stats.SplitSeed(cfg.Seed, "cluster/run")),
		nodeFree: make([]float64, cfg.Graph.N()),
		nodeBusy: make([]float64, cfg.Graph.N()),
		linkFree: map[[2]int]float64{},
		res:      &Result{Algorithm: algo.Name()},
	}
	rt.containers = make([]map[int]*container, cfg.Catalog.Len())
	for i := range rt.containers {
		rt.containers[i] = map[int]*container{}
	}
	rt.homes = make([]int, cfg.NumUsers)
	for u := range rt.homes {
		rt.homes[u] = rt.rng.Intn(cfg.Graph.N())
	}

	// Seed arrivals per user (Poisson process, thinned at generation).
	for u := 0; u < cfg.NumUsers; u++ {
		rt.scheduleNextArrival(u, 0)
	}
	// Slot boundaries (the first at t=0 performs the initial deployment
	// from a forecast sample of requests).
	rt.push(&event{at: 0, kind: evSlot})

	for rt.events.Len() > 0 {
		ev := heap.Pop(&rt.events).(*event)
		if ev.at > cfg.Horizon {
			break
		}
		rt.now = ev.at
		switch ev.kind {
		case evSlot:
			if err := rt.replan(); err != nil {
				return nil, err
			}
			if rt.now+cfg.SlotSeconds <= cfg.Horizon {
				rt.push(&event{at: rt.now + cfg.SlotSeconds, kind: evSlot})
			}
		case evArrival:
			rt.admit(ev.req)
		case evLegDone:
			rt.advanceTransfer(ev.req)
		case evStepDone:
			rt.finishStep(ev.req)
		}
	}

	rt.res.BusyFraction = make([]float64, cfg.Graph.N())
	for k := range rt.nodeBusy {
		rt.res.BusyFraction[k] = rt.nodeBusy[k] / cfg.Horizon
	}
	return rt.res, nil
}

func (rt *runtime) push(ev *event) {
	rt.seq++
	ev.seq = rt.seq
	heap.Push(&rt.events, ev)
}

// scheduleNextArrival draws the user's next request.
func (rt *runtime) scheduleNextArrival(user int, from float64) {
	gap := -math.Log(1-rt.rng.Float64()) * rt.cfg.MeanInterarrival
	at := from + gap
	if at > rt.cfg.Horizon {
		return
	}
	req := rt.makeRequest(user)
	lr := &liveRequest{req: req, arrived: at}
	rt.push(&event{at: at, kind: evArrival, req: lr})
	rt.scheduleNextArrival(user, at)
}

// makeRequest draws the user's next request with the analytic simulator's
// request draw.
func (rt *runtime) makeRequest(user int) msvc.Request {
	return sim.DrawRequest(rt.rng, rt.cfg.Workload, rt.cfg.Catalog.Flows(), rt.homes[user])
}

// replan observes the previous slot's requests, asks the algorithm for a
// placement, and reconciles containers (new ones cold-start).
func (rt *runtime) replan() error {
	// Mobility happens at slot boundaries.
	if rt.now > 0 {
		for u := range rt.homes {
			if rt.rng.Float64() < rt.cfg.MoveProb {
				nb := rt.cfg.Graph.Neighbors(rt.homes[u])
				if len(nb) > 0 {
					rt.homes[u] = nb[rt.rng.Intn(len(nb))]
				}
			}
		}
	}

	observed := rt.observed
	rt.observed = nil
	if len(observed) == 0 {
		// Bootstrap (or an idle slot): forecast one request per user.
		for u := range rt.homes {
			observed = append(observed, rt.makeRequest(u))
		}
	}
	for i := range observed {
		observed[i].ID = i
	}
	in := &model.Instance{
		Graph:    rt.cfg.Graph,
		Workload: &msvc.Workload{Catalog: rt.cfg.Catalog, Requests: observed},
		Lambda:   rt.cfg.Lambda,
		Budget:   rt.cfg.Budget,
	}
	placement, err := rt.algo.Place(in)
	if err != nil {
		return fmt.Errorf("cluster: %s re-plan failed at t=%.0f: %w", rt.algo.Name(), rt.now, err)
	}
	rt.res.SlotCosts = append(rt.res.SlotCosts, in.DeployCost(placement))

	// Reconcile containers.
	for svc := range rt.containers {
		for node := range rt.containers[svc] {
			if !placement.Has(svc, node) {
				delete(rt.containers[svc], node) // graceful stop
			}
		}
		for _, node := range placement.NodesOf(svc) {
			if _, ok := rt.containers[svc][node]; !ok {
				ready := rt.now + rt.cfg.ColdStart
				if rt.now == 0 {
					ready = 0 // initial deployment pre-warms before traffic
				} else {
					rt.res.ColdStarts++
				}
				rt.containers[svc][node] = &container{ready: ready}
			}
		}
	}
	return nil
}

// admit routes an arriving request against currently deployed containers
// and starts its ingress transfer.
func (rt *runtime) admit(lr *liveRequest) {
	rt.observed = append(rt.observed, lr.req)
	route := rt.route(&lr.req)
	if route == nil {
		rt.res.Unserved++
		return
	}
	lr.route = route
	lr.step = 0
	lr.legs = rt.legsFor(lr.req.Home, route[0], lr.req.DataIn)
	rt.advanceTransfer(lr)
}

// route picks the serving node per chain step by lowest path cost from the
// previous location among *deployed* containers (cold ones are routable —
// they queue until ready). Returns nil when some step has no container.
func (rt *runtime) route(req *msvc.Request) []int {
	route := make([]int, len(req.Chain))
	prev := req.Home
	for t, svc := range req.Chain {
		best, bestCost := -1, math.Inf(1)
		keys := make([]int, 0, len(rt.containers[svc]))
		for node := range rt.containers[svc] {
			keys = append(keys, node)
		}
		sort.Ints(keys) // map order must not leak into the simulation
		for _, node := range keys {
			if c := rt.cfg.Graph.PathCost(prev, node); c < bestCost {
				best, bestCost = node, c
			}
		}
		if best == -1 {
			return nil
		}
		route[t] = best
		prev = best
	}
	return route
}

// legsFor expands a transfer into its per-link legs.
func (rt *runtime) legsFor(a, b int, gb float64) []leg {
	if a == b || gb <= 0 {
		return nil
	}
	path := rt.cfg.Graph.Path(a, b)
	legs := make([]leg, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		legs = append(legs, leg{a: path[i-1], b: path[i], gb: gb})
	}
	return legs
}

// advanceTransfer serves the next link leg of the current transfer, or
// starts the compute step when the transfer is done.
func (rt *runtime) advanceTransfer(lr *liveRequest) {
	if lr.retired {
		return
	}
	if len(lr.legs) == 0 {
		if lr.step >= len(lr.route) {
			// Egress finished: the request is complete.
			rt.complete(lr)
			return
		}
		rt.startStep(lr)
		return
	}
	lg := lr.legs[0]
	lr.legs = lr.legs[1:]
	key := linkKey(lg.a, lg.b)
	rate, ok := rt.cfg.Graph.LinkRate(lg.a, lg.b)
	if !ok || rate <= 0 {
		rt.res.Unserved++
		lr.retired = true
		return
	}
	start := math.Max(rt.now, rt.linkFree[key])
	done := start + lg.gb/rate
	rt.linkFree[key] = done
	rt.push(&event{at: done, kind: evLegDone, req: lr})
}

// startStep queues the current chain step on its node's FIFO processor,
// gated by the container's readiness.
func (rt *runtime) startStep(lr *liveRequest) {
	node := lr.route[lr.step]
	svc := lr.req.Chain[lr.step]
	c := rt.containers[svc][node]
	ready := rt.now
	if c != nil && c.ready > ready {
		ready = c.ready // cold container: head-of-line wait
	}
	start := math.Max(ready, rt.nodeFree[node])
	serve := rt.cfg.Catalog.Service(svc).Compute / rt.cfg.Graph.Node(node).Compute
	done := start + serve
	rt.nodeFree[node] = done
	rt.nodeBusy[node] += serve
	rt.push(&event{at: done, kind: evStepDone, req: lr})
}

// finishStep starts the next transfer (to the next step's node, or the
// egress back home).
func (rt *runtime) finishStep(lr *liveRequest) {
	if lr.retired {
		return
	}
	cur := lr.route[lr.step]
	lr.step++
	if lr.step < len(lr.route) {
		lr.legs = rt.legsFor(cur, lr.route[lr.step], lr.req.EdgeData[lr.step-1])
	} else {
		lr.legs = rt.legsFor(cur, lr.req.Home, lr.req.DataOut)
	}
	rt.advanceTransfer(lr)
}

func (rt *runtime) complete(lr *liveRequest) {
	lr.retired = true
	rt.res.Completed++
	rt.res.Sojourns = append(rt.res.Sojourns, rt.now-lr.arrived)
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
