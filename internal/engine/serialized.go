package engine

import (
	"sync"
	"time"

	"crackstore/internal/crack"
)

// Serialized wraps an engine with a single mutex: every operation —
// including queries that would reorganize nothing — runs exclusively.
// This mirrors the paper's setting (cracking happens in the critical path
// of a single query executor). It is not part of the public API: it exists
// as the baseline the Concurrent wrapper is benchmarked against
// (crackbench -clients) and tested against.
func Serialized(e Engine) Engine {
	if _, ok := e.(*syncEngine); ok {
		return e
	}
	return &syncEngine{e: e}
}

// SharedEngine marks the wrapper safe to share (see IsShared).
func (s *syncEngine) SharedEngine() {}

type syncEngine struct {
	mu sync.Mutex
	e  Engine
}

func (s *syncEngine) Name() string { return s.e.Name() + " (serialized)" }
func (s *syncEngine) Kind() Kind   { return s.e.Kind() }

// SetCrackPolicy forwards the adaptive cracking policy to the wrapped
// engine under the mutex, reporting whether it cracks.
func (s *syncEngine) SetCrackPolicy(pol crack.Policy) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SetPolicy(s.e, pol)
}

func (s *syncEngine) Query(q Query) (Result, Cost) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Query(q)
}

func (s *syncEngine) Probe(q Query) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Probe(q)
}

func (s *syncEngine) QueryRO(q Query) (Result, Cost, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.QueryRO(q)
}

func (s *syncEngine) Insert(vals ...Value) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Insert(vals...)
}

func (s *syncEngine) Delete(key int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.Delete(key)
}

func (s *syncEngine) Prepare(attrs ...string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Prepare(attrs...)
}

func (s *syncEngine) Storage() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Storage()
}

func (s *syncEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ji, cost := s.e.JoinInput(preds, joinAttr, projs)
	inner := ji.Fetch
	// The fetcher may touch engine state (scan/selcrack read base
	// columns); keep it under the same lock.
	ji.Fetch = func(attr string, i int) Value {
		s.mu.Lock()
		defer s.mu.Unlock()
		return inner(attr, i)
	}
	return ji, cost
}
