// Package lk exercises lockbalance with the incumbent-store shape from the
// parallel engines: short mutex sections around shared best-so-far state.
package lk

import "sync"

// store mirrors ilp's incumbentStore.
type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	x  int
}

// goodDefer is the offer idiom: defer covers every exit.
func goodDefer(s *store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.x
}

// goodInline is a straight-line lock section.
func goodInline(s *store) {
	s.mu.Lock()
	s.x++
	s.mu.Unlock()
}

// goodRW pairs the read-side correctly.
func goodRW(s *store) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.x
}

// goodReleasedBeforeBranch releases before the early return: the branch
// after the Unlock runs lock-free and must not be flagged.
func goodReleasedBeforeBranch(s *store, v int) int {
	s.mu.Lock()
	s.x = v
	s.mu.Unlock()
	if v < 0 {
		return -1
	}
	return s.x
}

// badNoUnlock never releases: the next offer deadlocks every worker.
func badNoUnlock(s *store) {
	s.mu.Lock() // want "no matching Unlock"
	s.x++
}

// badEarlyReturn leaks the lock on the error path.
func badEarlyReturn(s *store, v int) int {
	s.mu.Lock()
	if v < 0 {
		return -1 // want "exits while holding s.mu"
	}
	s.x = v
	s.mu.Unlock()
	return v
}

// badMismatch releases a write lock through the read path.
func badMismatch(s *store) {
	s.rw.Lock() // want "paired only with RUnlock"
	s.x++
	s.rw.RUnlock()
}

// badRMismatch releases a read lock through the write path.
func badRMismatch(s *store) int {
	s.rw.RLock() // want "paired only with Unlock"
	v := s.x
	s.rw.Unlock()
	return v
}

// badUnlockOnly unlocks a mutex this function never locked.
func badUnlockOnly(s *store) {
	s.mu.Unlock() // want "without a Lock"
}

// suppressedProtocol is a documented cross-function handoff: the caller
// locks, this helper releases.
func suppressedProtocol(s *store) {
	//socllint:ignore lockbalance documented handoff: caller acquires mu before calling
	s.mu.Unlock()
}
