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

// lifecycle is the daemon's per-instance serverless state: consecutive-idle
// counters and the per-service demand history feeding the warm-pool sizer.
// All state advances in deterministic (service, node) order.
type lifecycle struct {
	cfg  LifecycleConfig
	idle [][]int // consecutive epochs with no served chain step, per (svc, node)

	// demand[s] is a ring buffer of the last WarmWindow epochs' demand for
	// service s (requests whose chain contains s, deduplicated per request).
	demand [][]int
	pos    int
	filled int
}

func newLifecycle(cfg LifecycleConfig, m, v int) *lifecycle {
	cfg = cfg.withDefaults()
	l := &lifecycle{cfg: cfg, idle: make([][]int, m), demand: make([][]int, m)}
	for i := 0; i < m; i++ {
		l.idle[i] = make([]int, v)
		l.demand[i] = make([]int, cfg.WarmWindow)
	}
	return l
}

// observe folds one epoch into the lifecycle state: steps counts the chain
// steps each (svc, node) pair served (nil, like all-zero, means nothing
// served), demand is this epoch's per-service request demand, and p is the
// placement that served. Deployed-but-unused instances age; everything else
// resets.
func (l *lifecycle) observe(steps [][]int, demand []int, p model.Placement) {
	for i := range l.idle {
		for k := range l.idle[i] {
			switch {
			case !p.Has(i, k):
				l.idle[i][k] = 0
			case steps != nil && steps[i][k] > 0:
				l.idle[i][k] = 0
			default:
				l.idle[i][k]++
			}
		}
		l.demand[i][l.pos] = demand[i]
	}
	l.pos = (l.pos + 1) % l.cfg.WarmWindow
	if l.filled < l.cfg.WarmWindow {
		l.filled++
	}
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
// kept as a warm spare. Removing an unused instance cannot change any
// optimal/greedy route (the delta engine's deletion-stability argument), so
// reaping only reduces cost; the caller's evaluator picks the saving up via
// AdvanceTo.
func (l *lifecycle) reap(p model.Placement) (removed []chaos.Inst, spares int) {
	for i := range l.idle {
		count := p.Count(i)
		tgt := l.target(i)
		for k := range l.idle[i] {
			if !p.Has(i, k) || l.idle[i][k] < l.cfg.IdleEpochs {
				continue
			}
			if count <= tgt {
				spares++
				continue
			}
			p.Set(i, k, false)
			l.idle[i][k] = 0
			count--
			removed = append(removed, chaos.Inst{Svc: i, Node: k})
		}
	}
	return removed, spares
}
