package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/stats"
)

// generator draws the trace one slot at a time as daemon events: request
// arrivals with their stochastic chains and homes, per-slot departures (the
// simulator's requests live one slot), and fault strikes. User mobility shows
// up as the homes of the next slot's arrivals. Run feeds each slot straight
// to a daemon; EventStream drains the same generator into a serve.Script, so
// a recorded script replays a Run bitwise.
type generator struct {
	cfg      Config
	r        *rand.Rand
	flows    [][]msvc.ServiceID
	mask     *chaos.Mask // the generator's own view of the faults; nil without Config.Faults
	homes    []int       // user → current node
	numSlots int
	slot     int
	nextID   int
	prev     []int         // IDs of the previous slot's arrivals (they depart now)
	evs      []serve.Event // next's result buffer, reused across slots
}

func newGenerator(cfg Config) (*generator, error) {
	if cfg.Graph == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("sim: nil graph or catalog")
	}
	if cfg.NumUsers <= 0 || cfg.SlotMinutes <= 0 || cfg.DurationMinutes <= 0 {
		return nil, fmt.Errorf("sim: non-positive sizing (users=%d slot=%v dur=%v)",
			cfg.NumUsers, cfg.SlotMinutes, cfg.DurationMinutes)
	}
	if cfg.MeanInterarrival <= 0 {
		cfg.MeanInterarrival = cfg.SlotMinutes
	}
	g := &generator{
		cfg:      cfg,
		r:        stats.NewRand(stats.SplitSeed(cfg.Seed, "sim/run")),
		flows:    cfg.Catalog.Flows(),
		homes:    make([]int, cfg.NumUsers),
		numSlots: int(cfg.DurationMinutes / cfg.SlotMinutes),
	}
	if len(g.flows) == 0 {
		return nil, fmt.Errorf("sim: catalog has no flows")
	}
	if cfg.Faults != nil {
		g.mask = chaos.NewMask(cfg.Graph)
	}
	for u := range g.homes {
		g.homes[u] = g.r.Intn(cfg.Graph.N())
	}
	return g, nil
}

// next returns the next slot's events in admission order. The slice is only
// valid until the following call (Ingest and EventStream copy it).
func (g *generator) next() ([]serve.Event, error) {
	cfg, r, slot := g.cfg, g.r, g.slot
	g.slot++

	// Mobility: random-waypoint hop to a neighbor (never onto a node the
	// user can observe to be down).
	for u := range g.homes {
		if r.Float64() < cfg.MoveProb {
			nb := cfg.Graph.Neighbors(g.homes[u])
			if len(nb) > 0 {
				hop := nb[r.Intn(len(nb))]
				if g.mask == nil || g.mask.NodeUp(hop) {
					g.homes[u] = hop
				}
			}
		}
	}

	// Departures first: the simulator's requests live exactly one slot, so
	// the daemon's active set each epoch is that slot's arrivals, in arrival
	// order (RouteModeRandom keys on the active index).
	evs := g.evs[:0]
	for _, id := range g.prev {
		evs = append(evs, serve.Event{Slot: slot, Kind: serve.EvDepart, ID: id})
	}
	g.prev = g.prev[:0]

	// Arrivals: per user a Poisson number of requests with mean
	// SlotMinutes/MeanInterarrival. They carry the homes as generated,
	// before any re-homing: the daemon re-homes its admitted requests
	// against its own mask.
	mean := cfg.SlotMinutes / cfg.MeanInterarrival
	for _, home := range g.homes {
		for n := poisson(r, mean); n > 0; n-- {
			req := DrawRequest(r, cfg.Workload, g.flows, home)
			req.ID = len(g.prev)
			evs = append(evs, serve.Event{Slot: slot, Kind: serve.EvArrive, ID: g.nextID, Node: home, Req: req})
			g.prev = append(g.prev, g.nextID)
			g.nextID++
		}
	}

	// Fault strikes are emitted after the arrivals: the daemon stages them
	// past its planning phase. The generator applies them to its own mask
	// to keep the mobility draws aligned with where users can be.
	if g.mask != nil {
		for _, e := range cfg.Faults.At(slot) {
			if err := g.mask.Apply(e); err != nil {
				return nil, fmt.Errorf("sim: recording fault %v: %w", e, err)
			}
			evs = append(evs, serve.Event{Slot: slot, Kind: serve.EvFault, Fault: e})
		}
		// Users follow their requests off freshly-crashed nodes — the
		// daemon's Relocator rule — on slots that generated requests.
		if len(g.prev) > 0 && !g.mask.Pristine() {
			relocate := serve.Relocator(g.mask, cfg.Graph)
			for u := range g.homes {
				g.homes[u] = relocate(g.homes[u])
			}
		}
	}
	g.evs = evs
	return evs, nil
}

// DrawRequest draws one request homed at home: a catalog flow (truncated by
// one step with probability w.TruncateProb) with uniform data volumes and no
// deadline. Package cluster draws through it too, so both testbeds consume
// their RNG streams in the same order.
func DrawRequest(r *rand.Rand, w msvc.WorkloadConfig, flows [][]msvc.ServiceID, home int) msvc.Request {
	base := flows[r.Intn(len(flows))]
	chain := append([]msvc.ServiceID(nil), base...)
	if len(chain) > 1 && r.Float64() < w.TruncateProb {
		chain = chain[:len(chain)-1]
	}
	req := msvc.Request{
		Home:     home,
		Chain:    chain,
		DataIn:   uniform(r, w.InDataMin, w.InDataMax),
		DataOut:  uniform(r, w.OutDataMin, w.OutDataMax),
		Deadline: math.Inf(1),
	}
	req.EdgeData = make([]float64, len(chain)-1)
	for e := range req.EdgeData {
		req.EdgeData[e] = uniform(r, w.EdgeDataMin, w.EdgeDataMax)
	}
	return req
}

func uniform(r *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + r.Float64()*(hi-lo)
}

// poisson draws a Poisson variate by Knuth's method (small means only).
func poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // safety for absurd means
		}
	}
}

// EventStream records the exact event stream a Run over cfg feeds its daemon
// as a serve.Script, so the run can be written to a file, sent over a wire,
// or replayed under a different daemon configuration.
func EventStream(cfg Config) (*serve.Script, error) {
	gen, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	s := &serve.Script{Meta: serve.Meta{
		Nodes:       cfg.Graph.N(),
		Lambda:      cfg.Lambda,
		Budget:      cfg.Budget,
		SlotMinutes: cfg.SlotMinutes,
		NumSlots:    gen.numSlots,
		RouteSeed:   stats.SplitSeed(cfg.Seed, "sim/route"),
	}}
	if cfg.Cloud != nil {
		s.Meta.CloudTransfer = cfg.Cloud.TransferCost
		s.Meta.CloudCompute = cfg.Cloud.Compute
	}
	for slot := 0; slot < gen.numSlots; slot++ {
		evs, err := gen.next()
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, evs...)
	}
	return s, nil
}
