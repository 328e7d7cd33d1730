package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/crack"
)

// ConcStats is the Readers section of a Report: how the readers of the
// RWMutex guard fare against concurrent reorganization. The zero value
// means "nothing observed". Snapshot readers take no lock and have no such
// section; what they publish and reclaim is SnapshotStats.
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
// Wrapping is idempotent: Concurrent on an engine that is already safe to
// share (IsShared: a Concurrent, Snapshot or durable engine, the sharded
// engine) returns it unchanged — adding a global lock over an engine that
// manages its own finer-grained locking would serialize it.
func Concurrent(e Engine) Engine {
	if IsShared(e) {
		return e
	}
	return &rwEngine{e: e}
}

// sharedMarker tags engines that are already safe to share across
// goroutines because they do their own locking: the wrappers in this
// package, and engines defined outside it (e.g. internal/shard, which wraps
// every shard in Concurrent individually).
type sharedMarker interface{ SharedEngine() }

// IsShared reports whether e is already safe to share across goroutines,
// i.e. implements the SharedEngine marker method. This is the one rule for
// who wraps: whoever shares an engine calls Concurrent (or Snapshot) on it,
// and both leave an IsShared engine alone.
func IsShared(e Engine) bool {
	_, ok := e.(sharedMarker)
	return ok
}

// rwEngine is the RWMutex QueryRO/Query guard behind Concurrent — and,
// embedded, behind the durable engine, which adds a journal to the write
// side and nothing to the read side.
type rwEngine struct {
	mu sync.RWMutex
	e  Engine

	readerWaitNs atomic.Int64
	readerWaits  atomic.Int64
}

// rlock acquires the read lock, recording time spent blocked behind a
// writer (an uncontended acquisition costs one TryRLock).
func (s *rwEngine) rlock() {
	if s.mu.TryRLock() {
		return
	}
	t0 := time.Now()
	//crackvet:ignore lockpair rlock acquires for its caller; every call site pairs it with s.mu.RUnlock
	s.mu.RLock()
	s.readerWaitNs.Add(int64(time.Since(t0)))
	s.readerWaits.Add(1)
}

// SharedEngine marks the guard (and anything embedding it) safe to share.
func (s *rwEngine) SharedEngine() {}

// Report is the wrapped engine's report, read under the read lock, plus the
// guard's Readers section. Deliberately bypasses rlock(): a metrics scrape
// must not count as reader contention.
func (s *rwEngine) Report() Report {
	s.mu.RLock()
	r := ReportOf(s.e)
	s.mu.RUnlock()
	r.Readers = &ConcStats{
		ReaderWait:  time.Duration(s.readerWaitNs.Load()),
		ReaderWaits: s.readerWaits.Load(),
	}
	return r
}

func (s *rwEngine) Name() string { return s.e.Name() + " (concurrent)" }
func (s *rwEngine) Kind() Kind   { return s.e.Kind() }

// SetCrackPolicy forwards the adaptive cracking policy to the wrapped
// engine under the write lock, reporting whether it cracks.
func (s *rwEngine) SetCrackPolicy(pol crack.Policy) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SetPolicy(s.e, pol)
}

func (s *rwEngine) Query(q Query) (Result, Cost) {
	// Fast path: execute read-only under the shared lock.
	s.rlock()
	res, cost, ok := s.e.QueryRO(q)
	s.mu.RUnlock()
	if ok {
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
	return s.e.Query(q)
}

func (s *rwEngine) QueryRO(q Query) (Result, Cost, bool) {
	s.rlock()
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

func (s *rwEngine) Prepare(attrs ...string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Prepare(attrs...)
}

func (s *rwEngine) Storage() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.e.Storage()
}

func (s *rwEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	// Join selections crack both inputs; take the write lock up front.
	// The returned fetcher needs no lock at all: every engine's JoinInput
	// captures a snapshot of its fetch columns (base-column slice headers
	// or a materialized intermediate), both immutable under concurrent
	// appends. The previous per-tuple RLock/RUnlock pair here dominated
	// wide join projections.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.JoinInput(preds, joinAttr, projs)
}
