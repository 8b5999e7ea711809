package experiments

import (
	"fmt"
	"sync"

	"repro/internal/bb"
	"repro/internal/stats"
)

// runSweep evaluates fn over n sweep points through a worker pool and
// returns the results ordered by point index. Two properties make parallel
// sweeps reproduce the serial tables bit for bit:
//
//   - Each point gets its own derived seed, stats.SplitSeed(opts.Seed,
//     "<label>/<i>"), a pure function of the root seed and the point's
//     index — never of scheduling order or worker identity.
//   - Results land in out[i], so the caller's row order is the sweep order
//     regardless of which point finishes first.
//
// Workers comes from opts.Workers, resolved by bb.ResolveWorkers (0 means
// GOMAXPROCS): 1 forces the serial path (no goroutines at all, useful
// under -race and in differential tests). fn must not share mutable state
// across points; drivers that reuse one instance across points
// (ExtBudget's delta-scored budget sweep) stay on plain serial loops
// instead.
func runSweep[R any](opts Options, label string, n int, fn func(i int, seed int64) R) []R {
	out := make([]R, n)
	seedOf := func(i int) int64 {
		return stats.SplitSeed(opts.Seed, fmt.Sprintf("%s/%d", label, i))
	}
	workers := min(bb.ResolveWorkers(opts.Workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i, seedOf(i))
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(i, seedOf(i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
