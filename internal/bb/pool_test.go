package bb

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runBounded is Run under a watchdog. A deque lock left held on some path
// parks every worker for good; the test then fails after 10 s with a
// goroutine dump instead of at go test's timeout.
func runBounded[T any](t *testing.T, workers int, seeds []T, stop func() bool, process func(*Ctx[T], T) error) (stats Stats, err error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, err = Run(workers, seeds, stop, process)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Run did not return within 10 s; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	return stats, err
}

// Every seeded and pushed item must be processed exactly once.
func TestRunProcessesEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		const seeds = 23
		var mu sync.Mutex
		seen := map[int]int{}
		in := make([]int, seeds)
		for i := range in {
			in[i] = i
		}
		_, err := runBounded(t, workers, in, nil, func(c *Ctx[int], v int) error {
			mu.Lock()
			seen[v]++
			mu.Unlock()
			// Fan out two generations of children so pushes are exercised even
			// without starvation (Push is valid regardless of ShouldShare).
			if v < seeds {
				c.Push(v + 1000)
				c.Push(v + 2000)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != 3*seeds {
			t.Fatalf("workers=%d: processed %d distinct items, want %d", workers, len(seen), 3*seeds)
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: item %d processed %d times", workers, v, n)
			}
		}
	}
}

// With an unbalanced layout, thieves must actually steal. The single seed
// lands on worker 0, which pushes children and then blocks inside process
// until they are all gone — worker 0 cannot pop its own deque while blocked,
// so every child must be stolen by one of the three starving workers.
func TestRunStealsUnderImbalance(t *testing.T) {
	const children = 16
	var done atomic.Int64
	stats, err := runBounded(t, 4, []int{-1}, nil, func(c *Ctx[int], v int) error {
		if v == -1 {
			for i := 0; i < children; i++ {
				c.Push(i)
			}
			for done.Load() < children {
				runtime.Gosched()
			}
			return nil
		}
		done.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushes != children {
		t.Fatalf("pushes = %d, want %d", stats.Pushes, children)
	}
	// The seed itself may also be stolen before its owner pops it, so the
	// count can exceed the children by one.
	if stats.Steals < children {
		t.Fatalf("steals = %d, want >= %d (all children must be stolen)", stats.Steals, children)
	}
}

// The first process error aborts the pool and is returned.
func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	seeds := make([]int, 50)
	for i := range seeds {
		seeds[i] = i
	}
	var calls atomic.Int64
	_, err := runBounded(t, 4, seeds, nil, func(c *Ctx[int], v int) error {
		calls.Add(1)
		if v == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls.Load() > 50 {
		t.Fatalf("pool kept running after the error: %d calls", calls.Load())
	}
}

// stop() abandons remaining work without error.
func TestRunHonorsStop(t *testing.T) {
	var stopped atomic.Bool
	var calls atomic.Int64
	seeds := make([]int, 100)
	_, err := runBounded(t, 2, seeds, stopped.Load, func(c *Ctx[int], v int) error {
		if calls.Add(1) >= 5 {
			stopped.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 100 {
		t.Fatal("stop() was never honored")
	}
}

// With a single worker ShouldShare must be constantly false — the Workers:1
// path must behave exactly like a serial dive with a private stack.
func TestShouldShareFalseWithOneWorker(t *testing.T) {
	shared := false
	seeds := []int{0}
	_, err := runBounded(t, 1, seeds, nil, func(c *Ctx[int], v int) error {
		if c.ShouldShare() {
			shared = true
		}
		if v < 64 {
			c.Push(2*v + 1)
			c.Push(2*v + 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("ShouldShare reported an idle worker in a single-worker pool")
	}
}

// Worker indices are stable and within range; per-worker state selection
// depends on it.
func TestWorkerIndexInRange(t *testing.T) {
	const workers = 3
	seeds := make([]int, 60)
	var bad atomic.Bool
	_, err := runBounded(t, workers, seeds, nil, func(c *Ctx[int], v int) error {
		if c.Worker() < 0 || c.Worker() >= workers {
			bad.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() {
		t.Fatal("worker index out of range")
	}
}
