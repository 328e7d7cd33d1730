package engine

import (
	"sync"
	"sync/atomic"

	"crackstore/internal/crack"
	"crackstore/internal/store"
)

// Snapshot wraps e for concurrent serving with lock-free snapshot reads:
// read-only queries traverse an immutable version of the cracked state
// (published by writers with an atomic pointer swap, never written again,
// and freed by the garbage collector once no reader holds it) and never
// wait for a crack — the RWMutex of Concurrent makes every reader stall
// behind a cold crack's multi-ms write section; Snapshot removes that cliff
// entirely.
//
// The snapshot protocol is implemented for the selection-cracking engine
// (SelCrack), whose state — one cracker column per selection attribute, the
// key map of that attribute's map set, with the set's pending updates, over
// append-only base columns — is exactly reconstructible at piece
// granularity. A warm SelCrack engine keeps its cracked layout, policy and
// pending updates across the conversion (sideways.Store.KeyMaps). Engines
// that already guard themselves are returned unchanged; other kinds (whose
// auxiliary structures mutate internal maps and stat caches on the read
// path) fall back to Concurrent(e), so Snapshot is always safe to request.
func Snapshot(e Engine) Engine {
	if guarded(e) {
		return e
	}
	if sc, ok := e.(*selCrackEngine); ok {
		return newSnapEngine(sc)
	}
	return Concurrent(e)
}

// snapEngine is the multi-version selection-cracking engine behind
// Snapshot. It answers queries with selection cracking's one plan
// (crackQuery) and keeps only what versioning adds to it. Readers
// (QueryRO, and Query's fast path) are entirely lock-free: they load
// immutable state through atomic pointers and copy what they need. Writers
// (cracking queries, Insert, Delete) serialize on mu and publish every
// change as a new immutable version before returning.
//
// Lock-free reads lean on three invariants:
//
//   - Base columns are append-only (deletes are tombstones, kept by the
//     relation and read by writers only), and bases holds their slice
//     headers republished under mu after every append — a reader's header
//     snapshot never sees a partially written row because the row's keys
//     only become reachable via a cracker-column version published after
//     bases.
//   - A cracker column's versions are immutable (crack.SnapCol): a reader
//     holding one needs nothing else to keep it intact.
//   - The cols map is copy-on-write: on-demand column creation publishes a
//     fresh map, never mutating one a reader may hold.
type snapEngine struct {
	mu  sync.Mutex // serializes writers; readers never take it
	rel *store.Relation
	pol crack.Policy

	cols  atomic.Pointer[map[string]*crack.SnapCol]
	bases atomic.Pointer[map[string][]Value]
}

func newSnapEngine(sc *selCrackEngine) *snapEngine {
	e := &snapEngine{rel: sc.st.Relation(), pol: sc.st.Policy}
	cols := make(map[string]*crack.SnapCol)
	sc.st.KeyMaps(func(attr string, km *crack.Pairs, ins []int, del map[int]bool) {
		cols[attr] = crack.SnapColFromPairs(km, e.rel.MustColumn(attr), ins, del)
	})
	e.cols.Store(&cols)
	e.publishBasesLocked()
	return e
}

func (e *snapEngine) Kind() Kind { return SelCrack }

// publishBasesLocked re-publishes the base-column slice headers; must run
// under mu and before any cracker-column version referencing new keys is
// published, so a reader that sees a key through a version always finds
// its row in the bases snapshot it loads afterwards.
func (e *snapEngine) publishBasesLocked() {
	nb := make(map[string][]Value, len(e.rel.Order))
	for _, a := range e.rel.Order {
		nb[a] = e.rel.MustColumn(a).Vals
	}
	e.bases.Store(&nb)
}

// colLocked returns the cracker column for attr, creating it on demand from
// the current base state (tombstones become pending deletions) and
// publishing a fresh cols map. Must run under mu.
func (e *snapEngine) colLocked(attr string) *crack.SnapCol {
	cols := *e.cols.Load()
	if c, ok := cols[attr]; ok {
		return c
	}
	c := crack.NewSnapCol(e.rel.MustColumn(attr), e.pol, e.rel.Deleted())
	nc := make(map[string]*crack.SnapCol, len(cols)+1)
	for k, v := range cols {
		nc[k] = v
	}
	nc[attr] = c
	e.cols.Store(&nc)
	return c
}

func (e *snapEngine) Insert(vals ...Value) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rel.AppendRow(vals...)
	key := e.rel.NumRows() - 1
	e.publishBasesLocked() // before any column version can expose the key
	cols := *e.cols.Load()
	for _, ap := range e.rel.Order {
		if c, ok := cols[ap]; ok {
			c.Insert(key, e.rel.MustColumn(ap).Vals[key])
		}
	}
	return key
}

func (e *snapEngine) Delete(key int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.rel.Delete(key) {
		return
	}
	for _, c := range *e.cols.Load() {
		c.Delete(key)
	}
}

func (e *snapEngine) Storage() int {
	total := 0
	for _, c := range *e.cols.Load() {
		total += c.Len()
	}
	return total
}

// gatherRO answers one predicate lock-free from the column version it
// loads, or refuses when it would reorganize — a missing cracker column, a
// missing cut, or a pending-update backlog due for merging. Pending
// deletions are filtered, so its keys are never dead.
func (e *snapEngine) gatherRO(ap AttrPred) ([]Value, bool) {
	c, ok := (*e.cols.Load())[ap.Attr]
	if !ok {
		return nil, false
	}
	return c.GatherRO(ap.Pred)
}

// baseRO resolves a base column lock-free. Every call loads the bases
// afresh, after the keys it serves were gathered, so it always holds their
// rows (see publishBasesLocked).
func (e *snapEngine) baseRO(attr string) []Value { return (*e.bases.Load())[attr] }

// QueryRO is selection cracking read-only over published versions.
func (e *snapEngine) QueryRO(q Query) (Result, Cost, bool) {
	return crackQuery(q, e.gatherRO, e.baseRO)
}

func (e *snapEngine) Query(q Query) (Result, Cost) {
	// Fast path: lock-free snapshot read.
	if res, cost, ok := e.QueryRO(q); ok {
		return res, cost
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Double-check: a writer that ran between the two attempts may have
	// cracked the very same range already.
	if res, cost, ok := e.QueryRO(q); ok {
		return res, cost
	}
	res, cost, _ := crackQuery(q, e.crackLocked, e.baseLocked)
	return res, cost
}

// crackLocked answers one predicate by cracking its column, which publishes
// new versions as a side effect. Must run under mu.
func (e *snapEngine) crackLocked(ap AttrPred) ([]Value, bool) {
	return e.colLocked(ap.Attr).Select(ap.Pred), true
}

func (e *snapEngine) baseLocked(attr string) []Value { return e.rel.MustColumn(attr).Vals }

// SnapshotStats is the Snapshot section of a Report: the versions published
// across the engine's cracker columns. The section's presence marks a stack
// whose reads take no lock.
type SnapshotStats struct {
	Published uint64 // versions published (atomic pointer swaps)
}

func (d *SnapshotStats) add(s SnapshotStats) { d.Published += s.Published }

// Report is the kernel and snapshot sections. Per-column counters are
// atomics and the cols map is copy-on-write, so no lock is needed.
func (e *snapEngine) Report() Report {
	var ks crack.KernelStats
	var st SnapshotStats
	pieces := 0
	cols := *e.cols.Load()
	for _, c := range cols {
		ks.Add(c.KernelStats())
		pieces += c.Pieces()
		st.Published += c.Published()
	}
	r := kernelSection(ks, pieces, len(cols))
	r.Snapshot = &st
	return r
}
