package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// ConcStats is the Readers section of a Report: how the readers of the
// RWMutex guard fare against concurrent reorganization. The zero value
// means "nothing observed". Snapshot readers take no lock and have no such
// section; what they publish is SnapshotStats.
type ConcStats struct {
	// ReaderWait is the cumulative time readers spent blocked acquiring
	// read access.
	ReaderWait time.Duration
	// ReaderWaits counts read acquisitions that had to block.
	ReaderWaits int64
}

func (d *ConcStats) add(s ConcStats) {
	d.ReaderWait += s.ReaderWait
	d.ReaderWaits += s.ReaderWaits
}

// Concurrent wraps an engine with the two-phase (QueryRO, then Query)
// locking protocol so it can serve many goroutines at once.
//
// Cracking engines physically reorganize their structures as a side effect
// of queries — reads are writes — but after a warm-up the vast majority of
// queries touch only already-cracked pieces and reorganize nothing. The
// wrapper exploits that: a query first attempts the engine's
// reorganization-free path under a shared read lock (QueryRO); only when
// the engine reports that cracking, a pending-update merge, or structure
// maintenance is required does it take the exclusive write lock, re-check
// (another writer may have done the work in the meantime), and run the full
// Query. Aligned repeat queries therefore run genuinely in parallel, and
// one crack pays for every reader that was waiting behind it.
//
// Wrapping is idempotent: Concurrent on an engine that already guards
// itself (a Concurrent, Snapshot or durable engine, the sharded engine)
// returns it unchanged — adding a global lock over an engine that manages
// its own finer-grained locking would serialize it.
func Concurrent(e Engine) Engine {
	if guarded(e) {
		return e
	}
	return &rwEngine{e: e}
}

// guarded reports whether e is already safe to share across goroutines:
// its report has a Readers section (the RWMutex guard, alone, under a
// journal, or per shard) or a Snapshot section (lock-free versioned reads).
// Sections are fixed when a stack is built, so this asks for the stack's
// shape, not its state. It is the one rule for who wraps: whoever shares an
// engine calls Concurrent (or Snapshot) on it, and both leave a guarded
// engine alone.
func guarded(e Engine) bool {
	r := ReportOf(e)
	return r.Readers != nil || r.Snapshot != nil
}

// rwEngine is the RWMutex QueryRO/Query guard behind Concurrent — and,
// embedded, behind the durable engine, which adds a journal to the write
// side and nothing to the read side.
type rwEngine struct {
	mu sync.RWMutex
	e  Engine
	// journal, if set, is called under the write lock after every query
	// that had to reorganize, once it has returned.
	journal func(Query)

	readerWaitNs atomic.Int64
	readerWaits  atomic.Int64
}

// Report is the wrapped engine's report, read under the read lock, plus the
// guard's Readers section. A metrics scrape takes the lock without
// counting as reader contention.
func (s *rwEngine) Report() Report {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := ReportOf(s.e)
	r.Readers = &ConcStats{
		ReaderWait:  time.Duration(s.readerWaitNs.Load()),
		ReaderWaits: s.readerWaits.Load(),
	}
	return r
}

func (s *rwEngine) Kind() Kind { return s.e.Kind() }

func (s *rwEngine) Query(q Query) (Result, Cost) {
	// Fast path: execute read-only under the shared lock, released even
	// when a malformed query panics.
	if res, cost, ok := s.QueryRO(q); ok {
		return res, cost
	}
	// Slow path: the query needs reorganization. Double-check under the
	// write lock — a writer that ran between the two lock acquisitions may
	// have cracked the very same range already.
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, cost, ok := s.e.QueryRO(q); ok {
		return res, cost
	}
	res, cost := s.e.Query(q)
	if s.journal != nil {
		s.journal(q)
	}
	return res, cost
}

// QueryRO runs q read-only under the shared lock, recording time spent
// blocked behind a writer (an uncontended acquisition costs one TryRLock).
func (s *rwEngine) QueryRO(q Query) (Result, Cost, bool) {
	if !s.mu.TryRLock() {
		t0 := time.Now()
		s.mu.RLock()
		s.readerWaitNs.Add(int64(time.Since(t0)))
		s.readerWaits.Add(1)
	}
	defer s.mu.RUnlock()
	return s.e.QueryRO(q)
}

func (s *rwEngine) Insert(vals ...Value) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Insert(vals...)
}

func (s *rwEngine) Delete(key int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.Delete(key)
}

func (s *rwEngine) Storage() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.e.Storage()
}
