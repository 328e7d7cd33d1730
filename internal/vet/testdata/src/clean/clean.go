// Fixture proving the suite is quiet on idiomatic code: paired locks,
// lock-free reads of a published version, copy-then-publish replacement.
package clean

import (
	"sync"
	"sync/atomic"
)

type version struct {
	vals []int64
}

type store struct {
	mu  sync.Mutex
	cur atomic.Pointer[version]
}

func work() {}

func (s *store) read() int64 {
	v := s.cur.Load()
	if len(v.vals) == 0 {
		return 0
	}
	return v.vals[0]
}

func (s *store) replace(vals []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &version{vals: append([]int64(nil), vals...)}
	s.cur.Store(next)
}

func (s *store) bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	work()
}
