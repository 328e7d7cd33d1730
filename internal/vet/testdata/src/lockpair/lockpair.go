// Fixture for the lockpair checker: every sync.Mutex / sync.RWMutex
// acquire is released either by a defer on the next statement or by a
// straight-line section with no call or exit before its release.
package lockpair

import "sync"

type S struct {
	mu  sync.Mutex
	rmu sync.RWMutex
	n   int
	m   map[int]int
	ch  chan int
}

func work() {}

// Form (a): the release is deferred on the next statement.
func (s *S) deferredOK() {
	s.mu.Lock()
	defer s.mu.Unlock()
	work()
}

// Form (b): builtins, conversions, and calls inside a function literal
// (which runs elsewhere) may sit in a straight-line section.
func (s *S) inlineOK(b bool) int {
	s.mu.Lock()
	s.n++
	if b {
		s.n = int(int32(len(s.m)))
	}
	f := func() { work() }
	n := s.n
	s.mu.Unlock()
	f()
	return n
}

func (s *S) bothModesOK() {
	s.rmu.RLock()
	s.rmu.RUnlock()
	s.rmu.Lock()
	s.rmu.Unlock()
}

// The TryRLock if: its body may block on the lock; the lock is held after
// the if and released by the defer that follows it.
func (s *S) tryOK() int {
	if !s.rmu.TryRLock() {
		work()
		s.rmu.RLock()
		s.n++
	}
	defer s.rmu.RUnlock()
	work()
	return s.n
}

// A deferred literal can panic before it reaches its release.
func (s *S) deferredLit() {
	s.rmu.RLock()
	defer func() { // want "held across this defer"
		work()
		s.rmu.RUnlock()
	}()
	work()
}

func (s *S) leakOnReturn(b bool) {
	s.mu.Lock()
	if b {
		return // want "held across this return"
	}
	s.mu.Unlock()
}

func (s *S) leakToEnd() {
	s.mu.Lock() // want "has no release later in its block"
	s.n++
}

func (s *S) doubleAcquire() {
	s.mu.Lock()
	s.mu.Lock() // want "self-deadlocks"
	s.mu.Unlock()
}

func (s *S) modeMismatch() {
	s.rmu.Lock()
	s.rmu.RUnlock() // want "released with RUnlock but acquired with Lock"
}

func (s *S) divergingPaths(b bool) {
	s.rmu.RLock()
	if b {
		s.rmu.RUnlock() // want "released on one arm only"
	}
}

// The guard leak: a panic in the call skips the release.
func (s *S) callWhileHeld() {
	s.rmu.RLock()
	work() // want "held across this call"
	s.rmu.RUnlock()
}

func (s *S) indexWhileHeld(k int) {
	s.mu.Lock()
	s.n = s.m[k] // want "held across this index or slice"
	s.mu.Unlock()
}

func (s *S) receiveWhileHeld() {
	s.mu.Lock()
	s.n = <-s.ch // want "held across this channel receive"
	s.mu.Unlock()
}

func (s *S) panicWhileHeld() {
	s.mu.Lock()
	if s.n < 0 {
		panic("negative") // want "held across this call"
	}
	s.mu.Unlock()
}

func (s *S) reacquireUnderDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	work()
	s.mu.Lock() // want "while a deferred release of s.mu is pending"
	defer s.mu.Unlock()
}
