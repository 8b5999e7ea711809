package serve

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/model"
)

// refLifecycle is the dense lifecycle the idle clocks replaced, kept as the
// reference they must match: one idle counter per (service, node) cell, and
// an observe and a reap that each visit every cell, every epoch.
type refLifecycle struct {
	cfg  LifecycleConfig
	idle [][]int // consecutive epochs with no served chain step, per (svc, node)

	demand [][]int
	pos    int
	filled int
}

func newRefLifecycle(cfg LifecycleConfig, m, v int) *refLifecycle {
	cfg = cfg.withDefaults()
	l := &refLifecycle{cfg: cfg, idle: make([][]int, m), demand: make([][]int, m)}
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
func (l *refLifecycle) observe(steps [][]int, demand []int, p model.Placement) {
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
func (l *refLifecycle) target(s int) int {
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
// kept as a warm spare.
func (l *refLifecycle) reap(p model.Placement) (removed []chaos.Inst, spares int) {
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

// idleCount is how many epochs the idle clocks say (svc, node) has been
// idle: 0 when it has no clock.
func (l *lifecycle) idleCount(svc, node int) int {
	for _, c := range l.idle {
		if c.svc == svc && c.node == node {
			return l.now - c.since
		}
	}
	return 0
}

// lifecycleTally is what one played sequence exercised.
type lifecycleTally struct {
	steadyReaps, spares, replaced int
}

// playLifecycle drives the idle clocks and the dense reference through the
// same epochs, drawn by next (a value in [0, n)), and fails on the first
// epoch whose removals, warm spares, placements or idle counts differ. Each
// step changes something — flips instances between used and unused, adds or
// removes instances, replaces the placement wholesale, serves nothing, or
// claims a move that did not happen — and is followed by a steady stretch of
// up to 2·IdleEpochs+1 epochs in which only the demand may move. The idle
// clocks are told a step moved the placement or the used set exactly as the
// daemon tells them: not when reap's own removals were all that moved.
func playLifecycle(t *testing.T, cfg LifecycleConfig, m, v, steps int, next func(n int) int) lifecycleTally {
	t.Helper()
	l, ref := newLifecycle(cfg, m, v), newRefLifecycle(cfg, m, v)
	p, rp := model.NewPlacement(m, v), model.NewPlacement(m, v)
	used := make([][]int, m)
	for i := range used {
		used[i] = make([]int, v)
	}
	demand := make([]int, m)
	set := func(i, k int, on bool) { p.Set(i, k, on); rp.Set(i, k, on) }
	perWarm := cfg.withDefaults().ReqsPerWarm
	var tally lifecycleTally
	epoch := 0
	for s := 0; s < steps; s++ {
		kind := next(6)
		switch kind {
		case 0: // instances flip between used and unused
			for n := 1 + next(4); n > 0; n-- {
				i, k := next(m), next(v)
				if used[i][k] > 0 {
					used[i][k] = 0
				} else {
					used[i][k] = 1 + next(3)
				}
			}
		case 1: // instances are added or removed
			for n := 1 + next(4); n > 0; n-- {
				i, k := next(m), next(v)
				set(i, k, !p.Has(i, k))
			}
		case 2: // the placement is replaced wholesale
			for i := 0; i < m; i++ {
				for k := 0; k < v; k++ {
					set(i, k, next(2) == 1)
				}
			}
			tally.replaced++
		case 3: // nothing is served
			for i := range used {
				clear(used[i])
			}
		case 4: // a move is claimed, but nothing moved
		case 5: // the step is steady too
		}
		moved := kind != 5
		for stretch := next(2*l.cfg.IdleEpochs + 2); stretch >= 0; stretch-- {
			if next(3) == 0 {
				demand[next(m)] = next(3*perWarm + 1)
			}
			l.observe(used, demand, p, moved)
			ref.observe(used, demand, rp)
			removed, spares := l.reap(p)
			wantRemoved, wantSpares := ref.reap(rp)
			if !slices.Equal(removed, wantRemoved) || spares != wantSpares {
				t.Fatalf("epoch %d (moved=%v): reap removed %v and kept %d spares, the dense rules %v and %d",
					epoch, moved, removed, spares, wantRemoved, wantSpares)
			}
			for i := 0; i < m; i++ {
				if !slices.Equal(p.X[i], rp.X[i]) {
					t.Fatalf("epoch %d: placement of service %d is %v, the dense rules leave %v", epoch, i, p.X[i], rp.X[i])
				}
				for k := 0; k < v; k++ {
					if got, want := l.idleCount(i, k), ref.idle[i][k]; got != want {
						t.Fatalf("epoch %d (moved=%v): (%d,%d) idle for %d epochs, the dense rules count %d", epoch, moved, i, k, got, want)
					}
				}
			}
			if !moved && len(removed) > 0 {
				tally.steadyReaps++
			}
			tally.spares += spares
			moved = false
			epoch++
		}
	}
	return tally
}

// TestLifecycleMatchesDense: the idle clocks remove, keep as warm spares and
// count idle epochs exactly as the dense per-cell rules do, epoch by epoch,
// over generated sequences — WarmPool 0, 1 and 3, IdleEpochs 1 to 4, demand
// crossing ReqsPerWarm — that reap inside steady stretches.
func TestLifecycleMatchesDense(t *testing.T) {
	var total lifecycleTally
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := LifecycleConfig{
			IdleEpochs:  1 + int(seed)%4,
			WarmPool:    []int{0, 1, 3}[int(seed/4)%3],
			WarmWindow:  1 + r.Intn(4),
			ReqsPerWarm: 1 + r.Intn(4),
		}
		tally := playLifecycle(t, cfg, 1+r.Intn(4), 1+r.Intn(9), 40, r.Intn)
		total.steadyReaps += tally.steadyReaps
		total.spares += tally.spares
		total.replaced += tally.replaced
	}
	if total.steadyReaps == 0 || total.spares == 0 || total.replaced == 0 {
		t.Fatalf("the sequences did not reach every case: %+v", total)
	}
}

// FuzzLifecycle: TestLifecycleMatchesDense over fuzzed sequences. The first
// bytes pick the configuration and the shape, the rest draw the epochs.
func FuzzLifecycle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 2, 0, 2, 3, 7, 2, 1, 0, 5, 5, 5, 4, 3, 2, 1})
	f.Add([]byte{1, 0, 3, 0, 1, 4, 1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cfg := LifecycleConfig{
			IdleEpochs:  1 + int(data[0])%4,
			WarmPool:    []int{0, 1, 3}[int(data[1])%3],
			WarmWindow:  1 + int(data[2])%4,
			ReqsPerWarm: 1 + int(data[3])%4,
		}
		m, v := 1+int(data[4])%4, 1+int(data[5])%9
		rest := data[6:]
		next := func(n int) int {
			if len(rest) == 0 {
				return 0
			}
			b := rest[0]
			rest = rest[1:]
			return int(b) % n
		}
		playLifecycle(t, cfg, m, v, 1+len(rest)/4, next)
	})
}
