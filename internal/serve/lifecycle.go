package serve

import (
	"repro/internal/chaos"
	"repro/internal/model"
)

// LifecycleConfig makes the daemon's instances genuinely serverless: idle
// instances scale to zero, a deterministic sizer keeps a warm pool against
// returning demand, and cold starts carry a latency price. The zero value
// disables the whole lifecycle (the daemon then manages placement exactly
// like the batch simulator: instances live until evicted or re-planned).
type LifecycleConfig struct {
	// IdleEpochs is the number of consecutive epochs an instance must serve
	// no request step before it is eligible for scale-to-zero. 0 disables
	// idle reaping (and with it the whole lifecycle).
	IdleEpochs int
	// WarmPool is the per-service floor of instances the reaper keeps alive
	// regardless of idleness; the demand sizer can only raise it.
	WarmPool int
	// WarmWindow is the demand-history horizon (epochs) the warm-pool sizer
	// looks back over. Default 4.
	WarmWindow int
	// ReqsPerWarm is the per-epoch demand one warm instance is sized to
	// absorb: the sizer targets ceil(peakDemand/ReqsPerWarm) instances per
	// service. Default 8.
	ReqsPerWarm int
	// ColdStartDelay is the extra completion time (seconds) a chain step
	// pays on an instance deployed this epoch (model.ColdStartModel). 0
	// keeps the completion-time model bitwise identical to the legacy one.
	ColdStartDelay float64
}

// Enabled reports whether idle reaping is active.
func (c LifecycleConfig) Enabled() bool { return c.IdleEpochs > 0 }

func (c LifecycleConfig) withDefaults() LifecycleConfig {
	if c.WarmWindow <= 0 {
		c.WarmWindow = 4
	}
	if c.ReqsPerWarm <= 0 {
		c.ReqsPerWarm = 8
	}
	return c
}

// lifecycle is the daemon's per-instance serverless state: the idle clocks
// and the per-service demand history feeding the warm-pool sizer.
//
// An instance's idle clock is the start of its streak of epochs in which it
// was deployed and served no chain step. The clocks live in one list,
// ascending by (service, node), holding exactly the deployed instances the
// last observed epoch left unused and that reap kept. The list is rebuilt
// from the placement and the step counts only on an epoch where either moved
// (observe's moved); on any other epoch every listed instance is still
// deployed and unused, so its streak grows by the epoch without being
// touched. A steady epoch therefore costs the demand ring's M writes and
// reap's walk over the idle instances, not a pass over every (service, node)
// cell.
type lifecycle struct {
	cfg LifecycleConfig

	// now counts the observed epochs; a clock's instance has been idle for
	// now - since epochs.
	now int
	// idle holds the idle clocks, ascending by (service, node); spare is the
	// other buffer a rebuild writes into.
	idle, spare []idleClock
	// count[s] is the number of deployed instances of service s, taken by the
	// last rebuild and kept by reap.
	count []int

	// demand[s] is a ring buffer of the last WarmWindow epochs' demand for
	// service s (requests whose chain contains s, deduplicated per request).
	demand [][]int
	pos    int
	filled int
}

// idleClock is one deployed, unused instance and the observed-epoch count
// before its idle streak began.
type idleClock struct {
	svc, node int
	since     int
}

func newLifecycle(cfg LifecycleConfig, m, v int) *lifecycle {
	cfg = cfg.withDefaults()
	l := &lifecycle{cfg: cfg, count: make([]int, m), demand: make([][]int, m)}
	for i := 0; i < m; i++ {
		l.demand[i] = make([]int, cfg.WarmWindow)
	}
	return l
}

// observe folds one epoch into the lifecycle state: steps counts the chain
// steps each (svc, node) pair served (nil, like all-zero, means nothing
// served), demand is this epoch's per-service request demand, and p is the
// placement that served. Deployed-but-unused instances age; everything else
// resets. moved reports that p or the set of instances with a step may have
// changed since the last observe, other than by reap's own removals, which
// reap keeps the list true of; the first observe rebuilds regardless.
func (l *lifecycle) observe(steps [][]int, demand []int, p model.Placement, moved bool) {
	l.now++
	if moved || l.now == 1 {
		l.rebuild(steps, p)
	}
	for i := range l.demand {
		l.demand[i][l.pos] = demand[i]
	}
	l.pos = (l.pos + 1) % l.cfg.WarmWindow
	if l.filled < l.cfg.WarmWindow {
		l.filled++
	}
}

// rebuild derives the idle clocks and the deployed counts from p and steps
// in one ascending pass. An instance that was on the list continues its
// streak; one that was not starts a streak this epoch.
func (l *lifecycle) rebuild(steps [][]int, p model.Placement) {
	next, old := l.spare[:0], l.idle
	for i := range l.count {
		l.count[i] = 0
		for k, on := range p.X[i] {
			if !on {
				continue
			}
			l.count[i]++
			if steps != nil && steps[i][k] > 0 {
				continue
			}
			for len(old) > 0 && (old[0].svc < i || old[0].svc == i && old[0].node < k) {
				old = old[1:]
			}
			c := idleClock{svc: i, node: k, since: l.now - 1}
			if len(old) > 0 && old[0].svc == i && old[0].node == k {
				c.since = old[0].since
			}
			next = append(next, c)
		}
	}
	l.idle, l.spare = next, l.idle
}

// target is the deterministic warm-pool sizer: the number of instances of
// service s worth keeping warm, ceil(peak windowed demand / ReqsPerWarm),
// floored at WarmPool.
func (l *lifecycle) target(s int) int {
	peak := 0
	for w := 0; w < l.filled; w++ {
		if d := l.demand[s][w]; d > peak {
			peak = d
		}
	}
	t := (peak + l.cfg.ReqsPerWarm - 1) / l.cfg.ReqsPerWarm
	if t < l.cfg.WarmPool {
		t = l.cfg.WarmPool
	}
	return t
}

// reap scales idle instances to zero: every deployed instance idle for at
// least IdleEpochs is removed — in ascending (svc, node) order — unless that
// would drop the service below its warm-pool target, in which case it is
// kept as a warm spare. It walks the idle clocks alone and drops the removed
// ones from the list, which so stays true of the placement it edits.
// Removing an unused instance cannot change any optimal/greedy route (the
// delta engine's deletion-stability argument), so reaping only reduces cost;
// the caller's evaluator picks the saving up via AdvanceTo.
func (l *lifecycle) reap(p model.Placement) (removed []chaos.Inst, spares int) {
	kept := l.idle[:0]
	svc, tgt := -1, 0
	for _, c := range l.idle {
		if l.now-c.since < l.cfg.IdleEpochs {
			kept = append(kept, c)
			continue
		}
		if c.svc != svc {
			svc, tgt = c.svc, l.target(c.svc)
		}
		if l.count[svc] <= tgt {
			spares++
			kept = append(kept, c)
			continue
		}
		p.Set(svc, c.node, false)
		l.count[svc]--
		removed = append(removed, chaos.Inst{Svc: svc, Node: c.node})
	}
	l.idle = kept
	return removed, spares
}
