// Package par exercises parclosure: unsynchronized captured-state writes in
// goroutine closures and worker-pool callbacks, the disjoint-index and
// pass-as-parameter disciplines the repo's parallel code follows, and the
// suppression path.
package par

import "sync"

// pool mirrors experiments.runSweep's worker pool: fn runs on worker
// goroutines, so a callback passed to pool is concurrent code. parclosure
// learns this from pool's function summary (fn is referenced inside a
// spawned closure), not from pool's call sites.
func pool(n int, fn func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// badSharedCounter is the sweep-executor race: accumulating into a captured
// scalar from the worker callback instead of landing results in out[i].
func badSharedCounter(n int) int {
	total := 0
	pool(n, func(i int) {
		total += i // want "unsynchronized write to captured variable total"
	})
	return total
}

// claimRace is the ilp runFrontier shape with the atomic cursor replaced by
// a captured int — the race the engine's atomic.Int64 cursor exists to
// prevent.
func claimRace(frontier []int) {
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next < len(frontier) {
				i := next
				next++ // want "unsynchronized write to captured variable next"
				_ = frontier[i]
			}
		}()
	}
	wg.Wait()
}

// badMapWrite: concurrent map writes fault at runtime.
func badMapWrite(n int) map[int]int {
	m := map[int]int{}
	pool(n, func(i int) {
		m[i] = i // want "write to captured map m"
	})
	return m
}

// badCapturedIndex: an index captured from the enclosing function is shared
// by every worker, so the element writes collide.
func badCapturedIndex(out []int) {
	j := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[j] = 1 // want "unsynchronized write to captured variable out"
		}()
	}
	wg.Wait()
}

// bump mutates through its pointer parameter; the summary pass records it.
func bump(p *int, v int) { *p += v }

// badPtrMutation races one call away: the callback hands the captured
// accumulator to a mutating callee.
func badPtrMutation(n int) int {
	total := 0
	pool(n, func(i int) {
		bump(&total, i) // want "bump mutates captured variable total through parameter 0"
	})
	return total
}

var hits int

// recordHit writes package-level state; the summary pass records it.
func recordHit() { hits++ }

// badGlobalViaCall: the global write happens in the callee, visible only
// through its summary.
func badGlobalViaCall(n int) {
	pool(n, func(i int) {
		recordHit() // want "recordHit inside goroutine closure writes package-level variable hits"
	})
}

// badGlobalWrite: direct package-level write from a worker.
func badGlobalWrite(n int) {
	pool(n, func(i int) {
		hits = i // want "unsynchronized write to package-level variable hits"
	})
}

// badLoopVar captures the spawn loop's variable instead of passing it.
func badLoopVar(out []int) {
	var wg sync.WaitGroup
	for w := 0; w < len(out); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(w) // want "goroutine closure captures loop variable w"
		}()
	}
	wg.Wait()
}

func sink(int) {}

// goodIndexed is the disjoint-index discipline runSweep documents: each
// callback invocation owns out[i] because i arrives as an argument.
func goodIndexed(n int) []int {
	out := make([]int, n)
	pool(n, func(i int) {
		out[i] = i * i
	})
	return out
}

// goodLoopParam passes the loop variable as an argument, the runFrontier
// idiom (`go func(worker int) {...}(wi)`).
func goodLoopParam(out []int) {
	var wg sync.WaitGroup
	for w := 0; w < len(out); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = w
		}(w)
	}
	wg.Wait()
}

// goodRebound uses the self-shadowing rebind the suggested fix inserts.
func goodRebound(out []int) {
	var wg sync.WaitGroup
	for w := 0; w < len(out); w++ {
		wg.Add(1)
		go func() {
			w := w
			defer wg.Done()
			out[w] = w
		}()
	}
	wg.Wait()
}

// goodLocked guards the shared accumulator with a mutex.
func goodLocked(n int) int {
	total := 0
	var mu sync.Mutex
	pool(n, func(i int) {
		mu.Lock()
		total += i
		mu.Unlock()
	})
	return total
}

// goodChunked is the chunked fan-out shape: chunk bounds passed as
// parameters, all mutation closure-local.
func goodChunked(xs []int) []int {
	out := make([]int, len(xs))
	var wg sync.WaitGroup
	chunk := (len(xs) + 3) / 4
	for w := 0; w < 4; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = xs[i] * 2
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// suppressedJoin: a single spawned goroutine fully joined before the value
// is read — safe by handoff, documented with a reasoned ignore.
func suppressedJoin(n int) int {
	total := 0
	done := make(chan struct{})
	go func() {
		//socllint:ignore parclosure single goroutine, joined via done before total is read
		total = n
		close(done)
	}()
	<-done
	return total
}

// badStealCursor is the work-stealing deque shape gone wrong: the steal
// cursor into the shared deque is a captured variable every thief bumps, so
// two thieves can pop the same task — or skip one — depending on the
// schedule.
func badStealCursor(deque []int) {
	top := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for top < len(deque) {
				sink(deque[top])
				top++ // want "unsynchronized write to captured variable top"
			}
		}()
	}
	wg.Wait()
}

// badStealRegrow: a stolen task pushes follow-up work by appending to the
// captured deque itself instead of routing it through the pool.
func badStealRegrow(n int) {
	deque := make([]int, 0, n)
	pool(n, func(i int) {
		deque = append(deque, i) // want "unsynchronized write to captured variable deque"
	})
	sink(len(deque))
}

// goodStealDeques is the internal/bb discipline: per-worker deques, each
// guarded by its own mutex; the worker id arrives as a parameter and the
// victim order (id+k)%W is a pure function of it, so every shared access
// sits behind the victim's lock and every per-worker write lands at a
// parameter-derived index.
func goodStealDeques(tasks []int) int {
	const workers = 4
	deques := make([][]int, workers)
	var mus [workers]sync.Mutex
	for i, t := range tasks {
		deques[i%workers] = append(deques[i%workers], t)
	}
	popped := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < workers; k++ {
				victim := (id + k) % workers
				mus[victim].Lock()
				for len(deques[victim]) > 0 {
					top := deques[victim][0]
					deques[victim] = deques[victim][1:]
					popped[id] += top
				}
				mus[victim].Unlock()
			}
		}(w)
	}
	wg.Wait()
	sum := 0
	for _, p := range popped {
		sum += p
	}
	return sum
}
