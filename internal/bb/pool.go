// Package bb is the deterministic work-stealing pool behind the parallel
// branch-and-bound engine of internal/ilp (DESIGN.md §6).
//
// Structure:
//
//   - each worker owns a deque: the owner pushes and pops at the bottom
//     (LIFO, depth-first dive order), thieves steal from the top (FIFO, the
//     shallowest and therefore largest subtrees);
//   - the steal order is fixed by worker index — worker i scans victims
//     (i+1)%W, (i+2)%W, … — so the only scheduling freedom is OS timing;
//   - seeds are dealt round-robin across deques;
//   - termination is an outstanding-item count: every seeded or pushed item
//     is processed exactly once (or abandoned on stop/error), and workers
//     exit when the count reaches zero.
//
// Sharing is adaptive: Ctx.ShouldShare reports whether any worker is
// currently starving, and the engine pushes a subtree to the deque only then,
// keeping everything on a private stack otherwise. With one worker nothing is
// ever idle, so ShouldShare is constantly false and the search runs the exact
// serial dive — zero pool overhead on the Workers:1 path.
//
// The pool itself makes no determinism promise about the schedule — steals
// depend on timing. The engine's results are schedule-independent by
// construction (tie-keeping prunes plus lexicographic incumbent tie-breaks;
// see internal/ilp's package comment), which is what the Workers:1 ≡
// Workers:N differential tests pin.
package bb

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Stats reports what the pool did; counters are informational (they depend on
// the schedule) and must not feed back into search decisions.
type Stats struct {
	Steals int64 // items taken from another worker's deque
	Pushes int64 // items shared via Ctx.Push (seeds not included)
}

// deque is one worker's double-ended work queue. A plain mutex is enough:
// the owner touches it only when its local stack is empty and thieves only
// when theirs ran dry, so contention is a property of starvation, not of the
// hot path.
type deque[T any] struct {
	mu    sync.Mutex
	items []T
}

func (d *deque[T]) pushBottom(v T) {
	d.mu.Lock()
	d.items = append(d.items, v)
	d.mu.Unlock()
}

func (d *deque[T]) popBottom() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return zero, false
	}
	v := d.items[n-1]
	d.items[n-1] = zero
	d.items = d.items[:n-1]
	return v, true
}

func (d *deque[T]) stealTop() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return zero, false
	}
	v := d.items[0]
	// Shift in place instead of reslicing so the backing array keeps its
	// capacity for the owner's future pushes.
	copy(d.items, d.items[1:])
	d.items[len(d.items)-1] = zero
	d.items = d.items[:len(d.items)-1]
	return v, true
}

type pool[T any] struct {
	deques      []deque[T]
	process     func(*Ctx[T], T) error
	outstanding atomic.Int64 // seeded or pushed items not yet processed
	idle        atomic.Int64 // workers currently starving
	stop        func() bool
	aborted     atomic.Bool
	steals      atomic.Int64
	pushes      atomic.Int64

	errMu sync.Mutex
	err   error
}

// Ctx is a worker's handle into the pool, passed to every process call.
type Ctx[T any] struct {
	p  *pool[T]
	id int
}

// Worker is the stable worker index (0 ≤ Worker < workers); engines use it to
// select per-worker scratch state (warm solvers, search-state clones).
func (c *Ctx[T]) Worker() int { return c.id }

// ShouldShare reports whether some worker is currently starving, i.e. whether
// pushing a subtree would actually hand work to an idle thief. It is a hint:
// racing reads may over- or under-share, which affects only the schedule —
// never the search result. With one worker it is always false.
func (c *Ctx[T]) ShouldShare() bool { return c.p.idle.Load() > 0 }

// Push shares an item on the calling worker's deque, where the top is exposed
// to thieves. Call only from inside a process callback.
func (c *Ctx[T]) Push(v T) {
	c.p.outstanding.Add(1)
	c.p.pushes.Add(1)
	c.p.deques[c.id].pushBottom(v)
}

// ResolveWorkers maps an Options.Workers knob to a pool size: a positive
// count is taken as is, anything else means GOMAXPROCS. Engines call it to
// size their per-worker state; Run applies the same rule.
func ResolveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run distributes seeds round-robin over per-worker deques and processes
// items until every deque is empty and no item is in flight, stop() reports
// true, or a process call returns an error (first error wins; the pool aborts
// and Run returns it). process runs concurrently on up to
// ResolveWorkers(workers) goroutines; it may Push further items via the Ctx.
func Run[T any](workers int, seeds []T, stop func() bool, process func(*Ctx[T], T) error) (Stats, error) {
	workers = ResolveWorkers(workers)
	p := &pool[T]{deques: make([]deque[T], workers), process: process, stop: stop}
	for i, s := range seeds {
		p.outstanding.Add(1)
		p.deques[i%workers].pushBottom(s)
	}
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p.work(&Ctx[T]{p: p, id: id})
		}(wi)
	}
	wg.Wait()
	p.errMu.Lock()
	err := p.err
	p.errMu.Unlock()
	return Stats{Steals: p.steals.Load(), Pushes: p.pushes.Load()}, err
}

// work is one worker's loop: drain the own deque bottom-first, steal top-first
// from victims in the fixed (id+1)%W scan order, spin idle while items are in
// flight elsewhere, exit when everything is done or the search stopped.
func (p *pool[T]) work(c *Ctx[T]) {
	w := len(p.deques)
	idle := false
	defer func() {
		if idle {
			p.idle.Add(-1)
		}
	}()
	for {
		if p.aborted.Load() || (p.stop != nil && p.stop()) {
			return
		}
		v, ok := p.deques[c.id].popBottom()
		if !ok {
			for k := 1; k < w && !ok; k++ {
				v, ok = p.deques[(c.id+k)%w].stealTop()
				if ok {
					p.steals.Add(1)
				}
			}
		}
		if !ok {
			if p.outstanding.Load() == 0 {
				return
			}
			if !idle {
				idle = true
				p.idle.Add(1)
			}
			runtime.Gosched()
			continue
		}
		if idle {
			idle = false
			p.idle.Add(-1)
		}
		err := p.process(c, v)
		p.outstanding.Add(-1)
		if err != nil {
			p.errMu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.errMu.Unlock()
			p.aborted.Store(true)
			return
		}
	}
}
