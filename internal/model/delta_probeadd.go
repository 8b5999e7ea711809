package model

import (
	"math"

	"repro/internal/msvc"
)

// This file is the addition counterpart of ProbeRemoval: "what would the
// evaluation be with these services added on that node?" answered without
// mutating the binding and — under optimal routing — without re-running the
// routing DP of every request whose chain holds an added service, which is
// what an Apply → Eval → Revert probe pays. A repair that re-provisions after
// a crash scores every (damaged service, up node) pair once per committed
// add; on a thousand requests that was several hundred probes of ~400 DPs
// each, the one part of a daemon's epoch whose cost a seed decides.
//
// The saving is the shape of the DP. Adding node k to the candidates of
// chain step t leaves every layer before t as it was, gives layer t one more
// entry, and can change layer t+1 only where the step over k beats the
// minimum the layer already holds. Where it beats none — nearly always — the
// rest of the DP is the one already run, and the request's completion time is
// its cached one. So the evaluator keeps, per request, the DP's rows under the
// bound placement (built on the first probe, valid until a chain service
// mutates) and carries through the chain only the entries that deviate from
// them (probeAddRouted). Every value is produced by the same float operations
// as routeOptimal's forward pass — a minimum does not depend on the order its
// candidates are visited in — so the result is bitwise the one a mutation
// would give; selfCheckProbeAdd proves it under the soclinvariants tag.

// AddProbe is what a search loop ranking candidate additions reads off an
// Evaluation of the counterfactual placement.
type AddProbe struct {
	MissingInstances int
	Unroutable       int
	// ServedLatencySum is the index-order sum of the latencies that are not
	// +Inf: the requests some instance or the cloud serves.
	ServedLatencySum float64
	Cost             float64
	OverBudget       bool
}

// addProbeOf reads an AddProbe off an evaluation's summary; the budget flag
// is Evaluation.OverBudget's, on the bound Budget.
func (d *DeltaEvaluator) addProbeOf(s EvalSummary) AddProbe {
	return AddProbe{MissingInstances: s.MissingInstances, Unroutable: s.Unroutable,
		ServedLatencySum: s.ServedLatencySum, Cost: s.Cost, OverBudget: !(s.Cost <= d.in.Budget+FeasTol)}
}

// Classes of a counterfactual route, mirroring deltaRoute's flags.
const (
	addRouted uint8 = iota
	addCloud
	addMissing
)

// addProbeState is ProbeAdd's memo and scratch, dropped whenever the request
// list or the placement moves wholesale (EditRequests, AdvanceTo, Rebind).
type addProbeState struct {
	// tab[h] holds request h's DP rows under the bound placement: for each
	// chain step t, one value per candidate of the step's service — the cost
	// after the step (F) — followed by as many minima before the step's own
	// time is added (M; unused for t = 0). gen[h] is the chainGen the rows
	// were built at.
	tab [][]float64
	gen []uint64

	// Counterfactual outcomes of the requests one probe touched; mark[h]
	// equals stamp exactly for those.
	lat   []float64
	class []uint8
	mark  []uint64
	stamp uint64

	gain      []int
	layers    [][]int
	offs      []int
	dev, next []addDev
	include   includeLister
}

// addDev is one entry of a DP row that deviates from its memoized value.
type addDev struct {
	node int
	val  float64
}

// includeLister adapts the placement index to a counterfactual candidate view
// with one node added to some services, ascending like the index's own lists.
type includeLister struct {
	ix   *PlacementIndex
	node int
	svcs []int
	bufs [][]int // one per entry of svcs: a chain may hold several of them
}

func (x *includeLister) NodesOf(s int) []int {
	ns := x.ix.NodesOf(s)
	for i, svc := range x.svcs {
		if svc == s {
			for len(x.bufs) <= i {
				x.bufs = append(x.bufs, nil)
			}
			x.bufs[i] = mergeNode(x.bufs[i][:0], ns, x.node)
			return x.bufs[i]
		}
	}
	return ns
}

// mergeNode appends ns with node inserted in ascending position to dst.
func mergeNode(dst, ns []int, node int) []int {
	placed := false
	for _, k := range ns {
		if !placed && node < k {
			dst = append(dst, node)
			placed = true
		}
		dst = append(dst, k)
	}
	if !placed {
		dst = append(dst, node)
	}
	return dst
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ProbeAdd answers "what would Eval report with every service of svcs
// deployed on node?" without mutating the binding: bit-identical, field for
// field, to applying the additions, summarizing Eval and reverting them.
// Services the node already hosts (and repeats) are ignored. Greedy and
// random routing take exactly that mutate-and-revert path; optimal routing
// extends each affected request's memoized DP rows instead (see the file
// comment).
func (d *DeltaEvaluator) ProbeAdd(node int, svcs ...int) AddProbe {
	d.checkEpoch("ProbeAdd")
	st := &d.addProbe
	gain := st.gain[:0]
	for _, s := range svcs {
		if !d.ix.Has(s, node) && !containsInt(gain, s) {
			gain = append(gain, s)
		}
	}
	st.gain = gain

	if d.mode != RouteModeOptimal {
		dls := make([]*Delta, 0, len(gain))
		for _, s := range gain {
			dls = append(dls, d.Apply(s, node, true))
		}
		pr := d.addProbeOf(d.Summary())
		for j := len(dls) - 1; j >= 0; j-- { // LIFO revert discipline
			d.Revert(dls[j])
		}
		return pr
	}

	d.refresh()
	n := len(d.routes)
	if st.tab == nil {
		d.trackChains()
		st.tab = make([][]float64, n)
		st.gen = make([]uint64, n)
		for h := range st.gen {
			st.gen[h] = d.chainGen[h] - 1 // force a build on first touch
		}
	}
	if len(st.mark) != n {
		st.lat = make([]float64, n)
		st.class = make([]uint8, n)
		st.mark = make([]uint64, n)
		st.stamp = 0
	}
	st.stamp++
	for _, s := range gain {
		for _, h := range d.chains()[s] {
			if st.mark[h] == st.stamp {
				continue // already scored through another added service
			}
			st.mark[h] = st.stamp
			st.lat[h], st.class[h] = d.probeAddOne(h, node, gain)
		}
	}

	// The same class split and index-order sums as Summary.
	var pr AddProbe
	for h := range d.routes {
		e := &d.routes[h]
		lat, class := e.lat, addRouted
		switch {
		case st.mark[h] == st.stamp:
			lat, class = st.lat[h], st.class[h]
		case e.missing:
			class = addMissing
		case e.cloud:
			class = addCloud
		}
		switch {
		case class == addMissing:
			pr.MissingInstances++
		case class == addRouted && math.IsInf(lat, 1):
			pr.Unroutable++
		}
		if !math.IsInf(lat, 1) {
			pr.ServedLatencySum += lat
		}
	}
	pr.Cost = d.deployCostIncluding(gain)
	pr.OverBudget = !(pr.Cost <= d.in.Budget+FeasTol)
	d.selfCheckProbeAdd(node, gain, pr)
	return pr
}

// dropAddProbe forgets the memoized DP rows (the scratch buffers stay).
func (d *DeltaEvaluator) dropAddProbe() {
	d.addProbe.tab, d.addProbe.gen = nil, nil
}

// probeAddOne scores request h against the candidate view with gain added on
// node, classified exactly as rerouteOne would classify it under a placement
// with the bits set.
func (d *DeltaEvaluator) probeAddOne(h, node int, gain []int) (float64, uint8) {
	req := &d.in.Workload.Requests[h]
	if e := &d.routes[h]; e.missing || e.cloud {
		// Some chain service has no instance at all, so there are no rows to
		// extend. While one of them stays without an instance, routing against
		// the grown view fails with ErrNoInstance again — the outcome cached.
		for _, s := range req.Chain {
			if d.ix.Count(s) == 0 && !containsInt(gain, s) {
				if e.cloud {
					return e.lat, addCloud
				}
				return e.lat, addMissing
			}
		}
		// Otherwise route the request once against the grown view.
		st := &d.addProbe
		st.include = includeLister{ix: d.ix, node: node, svcs: gain, bufs: st.include.bufs}
		lat, err := d.in.routeOptimalLat(req, &st.include, d.scratch)
		switch {
		case err == nil:
			return lat, addRouted
		case IsNoInstance(err) && d.in.Cloud != nil:
			return d.in.Cloud.CloudCompletionTime(d.in.Workload.Catalog, req), addCloud
		default:
			return math.Inf(1), addMissing
		}
	}
	return d.probeAddRouted(h, req, node, gain), addRouted
}

// buildAddTable runs routeOptimalLat's forward pass for req over layers and
// keeps every row (layout: see addProbeState.tab).
func (d *DeltaEvaluator) buildAddTable(tab []float64, req *msvc.Request, layers [][]int) []float64 {
	size := 0
	for _, ns := range layers {
		size += 2 * len(ns)
	}
	if cap(tab) < size {
		tab = make([]float64, size)
	}
	tab = tab[:size]
	g := d.in.Graph
	prev := tab[:len(layers[0])]
	for j, k := range layers[0] {
		prev[j] = g.TransferTime(req.Home, k, req.DataIn) +
			d.in.stepTime(req.Chain[0], k)
	}
	off := 2 * len(layers[0])
	for t := 1; t < len(layers); t++ {
		c := len(layers[t])
		f, m := tab[off:off+c], tab[off+c:off+2*c]
		for j, k := range layers[t] {
			best := math.Inf(1)
			for pj, pk := range layers[t-1] {
				if c := prev[pj] + g.TransferTime(pk, k, req.EdgeData[t-1]); c < best {
					best = c
				}
			}
			m[j] = best
			f[j] = best + d.in.stepTime(req.Chain[t], k)
		}
		prev = f
		off += 2 * c
	}
	return tab
}

// probeAddRouted is the completion time of request h — every chain service
// of which has an instance — with gain added on node. It walks the chain
// carrying only the entries of the current layer's row that deviate from the
// memoized one: the node's own entry where the layer gains it, and every entry
// an earlier deviation lowered. A candidate set that grows can only lower a
// minimum, so a deviating entry is never above its memoized value and the
// next layer's minima are min(memoized minimum, steps over the deviating
// entries): the memoized term of a lowered entry is still in the memoized
// minimum, but it is no smaller than the new one (float addition is
// monotone), so it decides nothing. A layer costs candidates × deviations
// instead of candidates², and with no deviation left the rest of the chain is
// skipped.
func (d *DeltaEvaluator) probeAddRouted(h int, req *msvc.Request, node int, gain []int) float64 {
	st := &d.addProbe
	g := d.in.Graph
	chain := req.Chain
	L := len(chain)

	layers, offs := st.layers[:0], st.offs[:0]
	off := 0
	for _, s := range chain {
		ns := d.ix.NodesOf(s)
		layers, offs = append(layers, ns), append(offs, off)
		off += 2 * len(ns)
	}
	st.layers, st.offs = layers, offs
	if st.gen[h] != d.chainGen[h] || st.tab[h] == nil {
		st.tab[h] = d.buildAddTable(st.tab[h], req, layers)
		st.gen[h] = d.chainGen[h]
	}
	tab := st.tab[h]

	dev, next := st.dev[:0], st.next[:0] // layer t-1's deviating entries; layer t's
	for t := 0; t < L; t++ {
		if len(dev) == 0 {
			// In step with the memoized rows until a layer gains the node.
			for t < L && !containsInt(gain, chain[t]) {
				t++
			}
			if t == L {
				break
			}
		}
		next = next[:0]
		c := len(layers[t])
		if len(dev) > 0 {
			m := tab[offs[t]+c : offs[t]+2*c]
			for j, k := range layers[t] {
				best, lowered := m[j], false
				for _, p := range dev {
					if v := p.val + g.TransferTime(p.node, k, req.EdgeData[t-1]); v < best {
						best, lowered = v, true
					}
				}
				if lowered {
					next = append(next, addDev{k, best + d.in.stepTime(chain[t], k)})
				}
			}
		}
		if containsInt(gain, chain[t]) {
			nk := 0.0
			if t == 0 {
				nk = g.TransferTime(req.Home, node, req.DataIn) + d.in.stepTime(chain[0], node)
			} else {
				best := math.Inf(1)
				pf := tab[offs[t-1] : offs[t-1]+len(layers[t-1])]
				for pj, pk := range layers[t-1] {
					if v := pf[pj] + g.TransferTime(pk, node, req.EdgeData[t-1]); v < best {
						best = v
					}
				}
				for _, p := range dev {
					if v := p.val + g.TransferTime(p.node, node, req.EdgeData[t-1]); v < best {
						best = v
					}
				}
				nk = best + d.in.stepTime(chain[t], node)
			}
			next = append(next, addDev{node, nk})
		}
		dev, next = next, dev
	}
	st.dev, st.next = dev, next

	// Terminal: d_out from the last layer, as routeOptimal's. The cached
	// completion time is the minimum over the memoized last row, or +Inf.
	best := d.routes[h].lat
	for _, p := range dev {
		if v := p.val + req.DataOut*g.HopPathCost(p.node, req.Home); v < best {
			best = v
		}
	}
	return best
}

// deployCostIncluding is what Instance.DeployCost would return with gain's
// services added on a node that hosts none of them: DeployCost adds κ_i once
// per instance of service i, services in order, so this adds it Count(i)
// times, plus once if i gains — the same additions in the same order, and
// therefore the same bits, at O(instances) instead of O(M·V).
func (d *DeltaEvaluator) deployCostIncluding(gain []int) float64 {
	cost := 0.0
	for i, kappa := range d.kappa {
		n := d.ix.Count(i)
		if containsInt(gain, i) {
			n++
		}
		for ; n > 0; n-- {
			cost += kappa
		}
	}
	return cost
}
