// Package shard implements a partitioned engine: one relation
// range-partitioned (or hash-partitioned) across N inner engines, each
// independently wrapped in engine.Concurrent.
//
// Cracking makes reads into writes, so even the two-phase protocol of
// engine.Concurrent serializes every reader behind a crack — one RWMutex
// guards the whole relation. Sharding splits that lock: a query that must
// crack shard 3 takes only shard 3's write lock, while read-only hits on
// shards 0-2 keep flowing under their shared locks. This is the classic
// partition/fan-out/merge recipe applied to a self-organizing store, and
// the two-phase protocol is what makes it safe: every inner engine refuses,
// read-only, a query that would reorganize it.
//
// Partitioning is by value range over a chosen primary attribute: shard i
// owns the half-open value band [cut[i-1], cut[i]) of that attribute, with
// the outer bands open-ended. Range partitioning enables pruning —
// conjunctive queries that constrain the partition attribute skip every
// shard whose band cannot intersect the predicate, and never touch those
// shards' locks at all. When the partition attribute cannot support n
// distinct bands (too few distinct values, or an empty relation), the
// engine falls back to hash partitioning, which still distributes load and
// still prunes point predicates, but cannot prune ranges.
//
// The sharded engine is a wrapper like engine.Concurrent: it forwards the
// engine.Engine methods and Report, nothing else, and everything about its
// inner engines — kind, policy, guard — is fixed by New. Its report is the
// fold of its shards', so it carries their Readers (or Snapshot) section,
// and engine.Concurrent, engine.Snapshot and serve.New leave it unwrapped.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Options tunes the sharded engine.
type Options struct {
	// Attr is the partition attribute; "" means the relation's first
	// attribute. Range pruning applies to predicates over this attribute.
	Attr string
	// Policy is the adaptive cracking policy (crack.Policy) applied to
	// every inner engine at construction; the zero value is the default
	// crack-at-query-bounds behavior.
	Policy crack.Policy
	// Snapshot wraps every shard in engine.Snapshot instead of
	// engine.Concurrent: per-shard lock-free snapshot reads on top of
	// per-shard write serialization. Kinds engine.Snapshot does not
	// support fall back to Concurrent per shard.
	Snapshot bool
}

// location maps a global tuple key to its shard and shard-local key.
type location struct {
	shard int
	key   int
}

// Engine is a relation partitioned across n inner engines. It implements
// engine.Engine; every inner engine is wrapped in engine.Concurrent (or
// engine.Snapshot) and the key table has its own mutex, so the sharded
// engine is safe for any number of goroutines without further wrapping — a
// global lock on top would re-serialize cracks across shards, exactly what
// sharding exists to avoid.
type Engine struct {
	kind    engine.Kind
	attr    string  // partition attribute
	attrIdx int     // position of attr in the relation's attribute order
	hash    bool    // hash partitioning (range otherwise)
	cuts    []Value // range mode: n-1 ascending boundaries; shard i owns [cuts[i-1], cuts[i])
	shards  []engine.Engine

	mu   sync.RWMutex
	keys []location // global key -> location; grows on Insert
}

// New partitions rel across n engines of the given kind. Rows are routed by
// opts.Attr (default: the first attribute): range partitioning with
// n-quantile boundaries computed from the base data, or hash partitioning
// when the attribute's values cannot form n distinct bands. The relation's
// rows are copied into per-shard relations; rel itself is not retained.
// Global tuple keys follow build order (row i of rel keeps key i; Insert
// appends), matching the key sequence of an unsharded engine over the same
// rows.
func New(kind engine.Kind, rel *store.Relation, n int, opts Options) *Engine {
	if n < 1 {
		panic("shard: shard count must be >= 1")
	}
	attr := opts.Attr
	if attr == "" {
		if len(rel.Order) == 0 {
			panic("shard: relation has no attributes")
		}
		attr = rel.Order[0]
	}
	attrIdx := -1
	for i, a := range rel.Order {
		if a == attr {
			attrIdx = i
		}
	}
	if attrIdx < 0 {
		panic(fmt.Sprintf("shard: relation %q has no attribute %q", rel.Name, attr))
	}

	s := &Engine{kind: kind, attr: attr, attrIdx: attrIdx, cuts: quantileCuts(rel.MustColumn(attr).Vals, n)}
	if len(s.cuts) != n-1 {
		// Unpartitionable: not enough distinct values (or no rows) to
		// form n non-empty bands. Fall back to hashing.
		s.hash = true
		s.cuts = nil
	}

	// Split the base rows into per-shard relations, recording the global
	// key map as we go.
	rels := make([]*store.Relation, n)
	for i := range rels {
		rels[i] = store.NewRelation(fmt.Sprintf("%s/%d", rel.Name, i), rel.Order...)
	}
	cols := make([]*store.Column, len(rel.Order))
	for i, a := range rel.Order {
		cols[i] = rel.MustColumn(a)
	}
	nrows := rel.NumRows()
	s.keys = make([]location, nrows)
	vals := make([]Value, len(cols))
	for row := 0; row < nrows; row++ {
		for i, c := range cols {
			vals[i] = c.Vals[row]
		}
		sh := s.route(vals[attrIdx], n)
		s.keys[row] = location{shard: sh, key: rels[sh].NumRows()}
		rels[sh].AppendRow(vals...)
	}
	s.shards = make([]engine.Engine, n)
	for i := range s.shards {
		inner := engine.NewWith(kind, rels[i], engine.Options{Policy: opts.Policy})
		if opts.Snapshot {
			s.shards[i] = engine.Snapshot(inner)
		} else {
			s.shards[i] = engine.Concurrent(inner)
		}
	}
	return s
}

var _ interface{ Report() engine.Report } = (*Engine)(nil)

// Report is the Add-fold of the shards' reports. Each shard's own wrapper
// takes its lock, so this is safe on a live engine.
func (s *Engine) Report() engine.Report {
	var total engine.Report
	for _, sh := range s.shards {
		total.Add(engine.ReportOf(sh))
	}
	return total
}

// quantileCuts returns the n-1 ascending shard boundaries (quantiles of
// vals), or a shorter slice when the values cannot support n distinct
// bands.
func quantileCuts(vals []Value, n int) []Value {
	if n < 2 || len(vals) < n {
		return nil
	}
	sorted := append([]Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cuts := make([]Value, 0, n-1)
	for i := 1; i < n; i++ {
		c := sorted[i*len(sorted)/n]
		if len(cuts) == 0 && c > sorted[0] || len(cuts) > 0 && c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// route returns the shard owning partition value v among n shards.
func (s *Engine) route(v Value, n int) int {
	if s.hash {
		return int(store.Mix64(uint64(v)) % uint64(n))
	}
	// First boundary strictly above v; the outer bands are open-ended.
	return sort.Search(len(s.cuts), func(i int) bool { return v < s.cuts[i] })
}

func (s *Engine) Kind() engine.Kind { return s.kind }

// ---------------------------------------------------------------------------
// Shard pruning.
//
// Shard bands are ordered, so the reach of one predicate over the
// partition attribute is always a contiguous run of shards, and pruning
// reduces to interval arithmetic — no per-query allocation on the hot
// path. Conjunctions intersect the per-predicate intervals exactly;
// disjunctions take the covering interval (a safe over-approximation:
// shards between two disjunct reaches hold no matching rows and simply
// contribute nothing).

// predSpan returns the half-open shard interval predicate p (over the
// partition attribute) can reach.
func (s *Engine) predSpan(p store.Pred) (int, int) {
	n := len(s.shards)
	if s.hash {
		// Hash routing can prune only predicates that match exactly one
		// value. Values are integers, so that covers more than store.Point:
		// normalize exclusive bounds inward and compare (e.g. the half-open
		// unit range [x, x+1) is a point lookup too).
		lo, hi := p.Lo, p.Hi
		if !p.LoIncl && lo < math.MaxInt64 {
			lo++
		}
		if !p.HiIncl && hi > math.MinInt64 {
			hi--
		}
		if lo == hi {
			r := s.route(lo, n)
			return r, r + 1
		}
		return 0, n
	}
	// First shard whose exclusive upper cut is above p.Lo, and last shard
	// whose inclusive lower cut is still reachable by p's upper bound.
	// Linear scans: shard counts are small (a handful of cuts), and on the
	// per-query hot path a straight loop beats sort.Search's closure
	// indirection.
	lo := 0
	for lo < len(s.cuts) && p.Lo >= s.cuts[lo] {
		lo++
	}
	hi := 0
	for hi < len(s.cuts) && (p.Hi > s.cuts[hi] || (p.Hi == s.cuts[hi] && p.HiIncl)) {
		hi++
	}
	return lo, hi + 1
}

// span returns the half-open shard interval [lo, hi) that q can touch.
// Conjunctive queries intersect the reach of every predicate over the
// partition attribute; disjunctive queries are prunable only when every
// predicate is over the partition attribute (any other predicate can match
// rows in any shard), in which case the per-predicate reaches union into
// their covering interval. An empty interval (lo == hi) means no shard can
// hold a match.
func (s *Engine) span(q engine.Query) (int, int) {
	n := len(s.shards)
	if len(q.Preds) == 0 {
		return 0, n
	}
	if q.Disjunctive {
		for _, ap := range q.Preds {
			if ap.Attr != s.attr {
				return 0, n
			}
		}
		lo, hi := n, 0
		for _, ap := range q.Preds {
			plo, phi := s.predSpan(ap.Pred)
			if plo < lo {
				lo = plo
			}
			if phi > hi {
				hi = phi
			}
		}
		if lo > hi {
			return 0, 0
		}
		return lo, hi
	}
	lo, hi := 0, n
	for _, ap := range q.Preds {
		if ap.Attr != s.attr {
			continue
		}
		plo, phi := s.predSpan(ap.Pred)
		if plo > lo {
			lo = plo
		}
		if phi < hi {
			hi = phi
		}
	}
	if lo > hi {
		return lo, lo
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// Query fan-out.

// mergeResults concatenates per-shard results in shard order. A column of
// the memory the caller lent (engine.Query.Into) that is large enough is
// reused; every other column is fresh and exactly the merged length.
func mergeResults(parts []engine.Result, projs []string, into *engine.Result) engine.Result {
	out := engine.Result{Cols: make(map[string][]Value, len(projs))}
	for _, p := range parts {
		out.N += p.N
	}
	var lent map[string][]Value
	if into != nil {
		lent = into.Cols
	}
	for _, attr := range projs {
		col := lent[attr][:0]
		if col == nil || cap(col) < out.N {
			col = make([]Value, 0, out.N)
		}
		for _, p := range parts {
			col = append(col, p.Cols[attr]...)
		}
		out.Cols[attr] = col
	}
	if into != nil {
		*into = out
	}
	return out
}

// addCost accumulates per-shard cost splits. The sum is aggregate work
// across shards, not wall-clock time: shards execute in parallel, so the
// elapsed time of a fanned-out query is bounded by its slowest shard.
func addCost(total *engine.Cost, c engine.Cost) {
	total.Sel += c.Sel
	total.TR += c.TR
}

// Query fans q out to the relevant shards and merges. Each shard's
// Concurrent wrapper independently decides between its read-only fast path
// and its write lock, so a crack on one shard never blocks read-only hits
// on the others. A query pruned to one shard — the common case for narrow
// predicates under range partitioning — is answered by that shard
// directly, with no merge. Multi-shard queries fan out in parallel when
// the runtime has CPUs to run them on, sequentially otherwise (goroutine
// handoff on a single-CPU box only adds scheduling latency). A shard that
// panics (an unknown attribute, say) panics Query on the caller's goroutine
// once every shard has returned, as the sequential loop would. Memory q
// lends goes to the one shard that answers, or else to the merge: shards
// answering side by side must not write into it.
func (s *Engine) Query(q engine.Query) (engine.Result, engine.Cost) {
	lo, hi := s.span(q)
	if hi-lo == 1 {
		return s.shards[lo].Query(q)
	}
	into := q.Into
	q.Into = nil
	var cost engine.Cost
	parts := make([]engine.Result, hi-lo)
	if runtime.GOMAXPROCS(0) > 1 {
		costs := make([]engine.Cost, hi-lo)
		panics := make([]any, hi-lo)
		var wg sync.WaitGroup
		for sh := lo; sh < hi; sh++ {
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				defer func() { panics[sh-lo] = recover() }()
				parts[sh-lo], costs[sh-lo] = s.shards[sh].Query(q)
			}(sh)
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
		for _, c := range costs {
			addCost(&cost, c)
		}
	} else {
		for sh := lo; sh < hi; sh++ {
			var c engine.Cost
			parts[sh-lo], c = s.shards[sh].Query(q)
			addCost(&cost, c)
		}
	}
	return mergeResults(parts, q.Projs, into), cost
}

// QueryRO answers q if no relevant shard needs to reorganize; ok is false
// as soon as one shard refuses. Never mutates. Lent memory goes where
// Query sends it.
func (s *Engine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	if len(q.Preds) == 0 {
		return engine.Result{}, engine.Cost{}, false
	}
	lo, hi := s.span(q)
	if hi-lo == 1 {
		return s.shards[lo].QueryRO(q)
	}
	into := q.Into
	q.Into = nil
	parts := make([]engine.Result, hi-lo)
	var cost engine.Cost
	for sh := lo; sh < hi; sh++ {
		res, c, ok := s.shards[sh].QueryRO(q)
		if !ok {
			return engine.Result{}, engine.Cost{}, false
		}
		parts[sh-lo] = res
		addCost(&cost, c)
	}
	return mergeResults(parts, q.Projs, into), cost, true
}

// ---------------------------------------------------------------------------
// Updates and maintenance.

// Insert routes the tuple to the shard owning its partition value and
// returns its global key. Only that shard's write lock is taken.
func (s *Engine) Insert(vals ...Value) int {
	if len(vals) <= s.attrIdx {
		panic("shard: Insert arity mismatch")
	}
	sh := s.route(vals[s.attrIdx], len(s.shards))
	local := s.shards[sh].Insert(vals...)
	s.mu.Lock()
	g := len(s.keys)
	s.keys = append(s.keys, location{shard: sh, key: local})
	s.mu.Unlock()
	return g
}

// Delete removes the tuple with the given global key; unknown keys are
// ignored. Only the owning shard's write lock is taken.
func (s *Engine) Delete(key int) {
	if loc, ok := s.locate(key); ok {
		s.shards[loc.shard].Delete(loc.key)
	}
}

// locate returns where the tuple with the given global key lives; false
// for a key never issued.
func (s *Engine) locate(key int) (location, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if key < 0 || key >= len(s.keys) {
		return location{}, false
	}
	return s.keys[key], true
}

// Storage returns the summed auxiliary-structure footprint across shards.
func (s *Engine) Storage() int {
	total := 0
	for _, e := range s.shards {
		total += e.Storage()
	}
	return total
}
