// Package engine provides a uniform query executor over the physical
// designs the paper compares:
//
//	Scan            — plain column-store (MonetDB baseline): full scans,
//	                  order-preserving selects, positional reconstruction
//	SelCrack        — selection cracking (CIDR 2007): cracker columns,
//	                  unordered results, random-access reconstruction
//	Presorted       — presorted copies: binary search + aligned slices,
//	                  heavy Prepare step, updates force re-sorting
//	Sideways        — sideways cracking with full maps (Section 3)
//	PartialSideways — partial sideways cracking (Section 4)
//	RowStore        — N-ary row-store reference (read-only, Figure 14)
//
// All engines answer the same Query type and support the same update API,
// so the experiment harness can replay identical workloads against each and
// compare cost profiles. Costs are split into selection (locating
// qualifying tuples) and tuple reconstruction (materializing projections),
// matching the breakdown in the paper's Section 3.6 table.
//
// A stack is fixed when it is built: NewWith takes every knob a base engine
// has (Options), and wrappers make it shared-safe (Concurrent, Snapshot),
// durable (OpenDurable) or partitioned (internal/shard). The Engine
// interface is the query and its updates — Kind, Query, QueryRO, Insert,
// Delete, Storage — and a wrapper forwards exactly that plus Report, the
// one method through which a stack says what its layers are and what they
// are doing (see Report). Nothing is configured through a wrapper after the
// fact, and plans over engines, such as JoinMax, are written against the
// interface alone, so they run on any stack.
package engine

import (
	"slices"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/presort"
	"crackstore/internal/rowstore"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// AttrPred pairs an attribute with a range predicate.
type AttrPred = sideways.AttrPred

// Kind identifies a physical design.
type Kind int

// The core engine kinds; RowStore is declared in rowstore.go.
const (
	Scan Kind = iota
	SelCrack
	Presorted
	Sideways
	PartialSideways
)

func (k Kind) String() string {
	switch k {
	case Scan:
		return "scan"
	case SelCrack:
		return "selcrack"
	case Presorted:
		return "presorted"
	case Sideways:
		return "sideways"
	case PartialSideways:
		return "partial"
	case RowStore:
		return "rowstore"
	}
	return "unknown"
}

// KindByName maps an engine kind's String() form ("scan", "selcrack",
// "presorted", "sideways", "partial", "rowstore") back to its Kind, for
// command-line and configuration surfaces.
func KindByName(name string) (Kind, bool) {
	for _, k := range []Kind{Scan, SelCrack, Presorted, Sideways, PartialSideways, RowStore} {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Query is a multi-selection, multi-projection query. Preds are combined
// conjunctively unless Disjunctive is set. The first predicate is treated
// as the primary (most selective) one by engines without self-organizing
// histograms; sideways engines choose their own map set.
type Query struct {
	Preds       []AttrPred
	Projs       []string
	Disjunctive bool
	// Into is memory the caller lends for the answer, like the buffer of
	// wire.ReadFrame: nil, the usual case, answers into fresh columns of
	// exactly the answer's length. An answer may be written into a lent
	// Result — a map-set engine's is whenever it answers read-only
	// (sideways.Plan.Reconstruct) — and is then valid until the caller lends
	// the same Result again. It never changes what the query means, and the
	// wire never carries it.
	Into *Result
}

// Result holds positionally aligned projection columns. It is the map-set
// core's type, so that a lent Result (Query.Into) reaches their finish
// unconverted.
type Result = sideways.Result

// Cost is the per-query cost split used throughout the experiments.
type Cost struct {
	Sel time.Duration // locating qualifying tuples (incl. cracking/alignment)
	TR  time.Duration // tuple reconstruction of projections
}

// Total returns Sel + TR.
func (c Cost) Total() time.Duration { return c.Sel + c.TR }

// Engine is one physical design wrapping a single relation.
//
// Engines follow a two-phase query protocol: QueryRO executes
// reorganization-free queries and refuses (ok == false) the ones that would
// physically reorganize engine state; Query executes anything. Concurrent
// builds on it: it attempts every query under a shared read lock and falls
// back to exclusive access only when QueryRO refuses — i.e. when the query
// must crack, merge pending updates, or maintain auxiliary structures.
// QueryRO's ok is the one eligibility answer; there is no way to ask
// without executing, because an answer that is not acted on under the same
// lock is stale by the time it is used.
//
// These six methods are all a wrapper forwards (with Report): anything else
// a caller needs, a join included, is built from queries.
type Engine interface {
	Kind() Kind
	// Query evaluates q and reports the cost split.
	Query(q Query) (Result, Cost)
	// QueryRO answers q without reorganizing anything. ok is false when
	// Query(q) would physically reorganize engine state — crack a piece,
	// merge a pending update, or build/align an auxiliary structure;
	// callers then fall back to Query under exclusive access. It never
	// mutates and is safe to call concurrently with other read-only
	// operations.
	QueryRO(q Query) (Result, Cost, bool)
	// Insert appends a tuple (attribute order of the relation); returns
	// its key.
	Insert(vals ...Value) int
	// Delete removes the tuple with the given key.
	Delete(key int)
	// Storage returns the auxiliary-structure footprint in tuples.
	Storage() int
}

// Options are the knobs of a base engine, fixed when it is built. A kind
// ignores the knobs it does not have; the zero value is the paper's plain
// algorithm with unlimited storage.
type Options struct {
	// Policy is the adaptive pivot policy of every cracked structure
	// (SelCrack, Sideways, PartialSideways); the zero value cracks at query
	// bounds only. It is part of the deterministic layout — maps aligned by
	// replaying one tape must crack under one policy — so it is never
	// changed on a live engine.
	Policy crack.Policy
	// Budget is the storage threshold in tuples of the map-set engines:
	// beyond it, full maps (Sideways) or chunks (PartialSideways) are
	// dropped least-frequently-used first, with aging (Section 4.2), never
	// one the query being answered reads. A set whose last map goes forgets
	// its tape, and its merged updates become pending again. 0 means
	// unlimited.
	Budget int
	// CachedPieceTuples and HeadDropIdleQueries are head dropping, for full
	// maps and chunks alike (Section 4.1): a map's head goes once every
	// piece of it is at most CachedPieceTuples tuples, or once it has not
	// been cracked for HeadDropIdleQueries queries. 0 disables either.
	CachedPieceTuples, HeadDropIdleQueries int
}

// NewWith constructs an engine of the given kind over rel (not copied),
// configured by opts. It is the one place a base engine is built.
func NewWith(kind Kind, rel *store.Relation, opts Options) Engine {
	switch kind {
	case Scan:
		return &scanEngine{rel: rel, dead: make(map[int]bool)}
	case SelCrack:
		return &selCrackEngine{rel: rel, cols: make(map[string]*crack.Col), dead: make(map[int]bool), pol: opts.Policy}
	case Presorted:
		return &presortEngine{ps: presort.NewStore(rel), stale: make(map[string]bool), dead: make(map[int]bool)}
	case Sideways, PartialSideways:
		st := sideways.NewStore(rel)
		if kind == PartialSideways {
			st = sideways.NewPartialStore(rel)
		}
		st.Policy, st.Budget = opts.Policy, opts.Budget
		st.CachedPieceTuples, st.HeadDropIdleQueries = opts.CachedPieceTuples, opts.HeadDropIdleQueries
		return &mapEngine{st: st, kind: kind}
	case RowStore:
		return &rowStoreEngine{rel: rel, plain: rowstore.New(rel), sorted: make(map[string]*rowstore.Table)}
	}
	panic("engine: unknown kind")
}

// New constructs an engine of the given kind over rel with default options.
func New(kind Kind, rel *store.Relation) Engine { return NewWith(kind, rel, Options{}) }

// NewScan returns the plain column-store engine (non-cracking MonetDB).
func NewScan(rel *store.Relation) Engine { return New(Scan, rel) }

// NewPartialWithBudget returns a partial engine with a chunk storage
// threshold in tuples.
func NewPartialWithBudget(rel *store.Relation, budget int) Engine {
	return NewWith(PartialSideways, rel, Options{Budget: budget})
}

// Prepare runs the offline step of the two presorted designs on attrs —
// Presorted builds a sorted copy per attribute, RowStore a table sorted on
// it — and returns its cost. Every other engine, and every wrapper, has no
// such step and costs 0: preparation is part of building a bare engine, not
// something a stack forwards.
func Prepare(e Engine, attrs ...string) time.Duration {
	if p, ok := e.(interface{ Prepare(...string) time.Duration }); ok {
		return p.Prepare(attrs...)
	}
	return 0
}

// MaxPerProj reduces a result to the per-projection maxima (the aggregate
// used by queries q1-q3 in the paper's experiments). ok is false when the
// result is empty.
func MaxPerProj(res Result, projs []string) (map[string]Value, bool) {
	if res.N == 0 {
		return nil, false
	}
	out := make(map[string]Value, len(projs))
	for _, attr := range projs {
		m, _ := store.Max(res.Cols[attr])
		out[attr] = m
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Scan engine: the plain column-store baseline (non-cracking MonetDB).

type scanEngine struct {
	rel  *store.Relation
	dead map[int]bool
}

func (e *scanEngine) Kind() Kind { return Scan }

func (e *scanEngine) Insert(vals ...Value) int {
	e.rel.AppendRow(vals...)
	return e.rel.NumRows() - 1
}

func (e *scanEngine) Delete(key int) { e.dead[key] = true }
func (e *scanEngine) Storage() int   { return 0 }

func (e *scanEngine) base(attr string) []Value { return e.rel.MustColumn(attr).Vals }

// selectKeys returns the ordered keys matching the query's predicates.
func (e *scanEngine) selectKeys(preds []AttrPred, disjunctive bool) []Value {
	n := e.rel.NumRows()
	var keys []Value
	cols := make([]*store.Column, len(preds))
	for i, ap := range preds {
		cols[i] = e.rel.MustColumn(ap.Attr)
	}
	for i := 0; i < n; i++ {
		if e.dead[i] {
			continue
		}
		match := !disjunctive
		for j, ap := range preds {
			m := ap.Pred.Matches(cols[j].Vals[i])
			if disjunctive {
				match = match || m
			} else {
				match = match && m
			}
		}
		if match {
			keys = append(keys, Value(i))
		}
	}
	return keys
}

func (e *scanEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	t0 := time.Now()
	keys := e.selectKeys(q.Preds, q.Disjunctive)
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	res := reconstruct(keys, q.Projs, e.base)
	cost.TR = time.Since(t0)
	return res, cost
}

// QueryRO: a full scan never reorganizes anything.
func (e *scanEngine) QueryRO(q Query) (Result, Cost, bool) {
	res, cost := e.Query(q)
	return res, cost, true
}

func (e *scanEngine) joinKeys(preds []AttrPred) ([]Value, func(string) []Value) {
	return e.selectKeys(preds, false), e.base
}

// reconstruct fetches projs of the tuples keys names from the base columns
// base resolves: the one reconstruct-by-keys path of the designs that keep
// no clustered copy (scan, selection cracking and its snapshot engine).
func reconstruct(keys []Value, projs []string, base func(string) []Value) Result {
	res := Result{Cols: make(map[string][]Value, len(projs)), N: len(keys)}
	for _, attr := range projs {
		res.Cols[attr] = gather(base(attr), keys)
	}
	return res
}

// gather returns col's values at keys, in key order: positional lookups,
// random access when the keys came out of a cracker column unordered.
func gather(col, keys []Value) []Value {
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = col[int(k)]
	}
	return out
}

// ---------------------------------------------------------------------------
// Selection cracking engine (CIDR 2007): cracker columns per selection
// attribute, crackers.select + rel_select plans, and random-access tuple
// reconstruction from base columns.

type selCrackEngine struct {
	rel  *store.Relation
	cols map[string]*crack.Col
	dead map[int]bool
	pol  crack.Policy // every cracker column's, from Options.Policy
}

func (e *selCrackEngine) Kind() Kind { return SelCrack }

func (e *selCrackEngine) Insert(vals ...Value) int {
	e.rel.AppendRow(vals...)
	key := e.rel.NumRows() - 1
	for _, ap := range e.rel.Order {
		if c, ok := e.cols[ap]; ok {
			c.Insert(key, e.rel.MustColumn(ap).Vals[key])
		}
	}
	return key
}

func (e *selCrackEngine) Delete(key int) {
	if e.dead[key] {
		return
	}
	e.dead[key] = true
	for _, c := range e.cols {
		c.Delete(key)
	}
}

func (e *selCrackEngine) Storage() int {
	total := 0
	for _, c := range e.cols {
		total += c.Len()
	}
	return total
}

// col returns the cracker column for attr, creating it on demand from the
// current base state (tombstones become pending deletions).
func (e *selCrackEngine) col(attr string) *crack.Col {
	if c, ok := e.cols[attr]; ok {
		return c
	}
	c := crack.NewColWithPolicy(e.rel.MustColumn(attr), e.pol)
	for k := range e.dead {
		c.Delete(k)
	}
	e.cols[attr] = c
	return c
}

func (e *selCrackEngine) base(attr string) []Value { return e.rel.MustColumn(attr).Vals }

// selectCrack answers one predicate by crackers.select on its column. The
// keys are copied out of the column's view, which the next crack moves — a
// join side holds its keys across the other side's selection.
func (e *selCrackEngine) selectCrack(ap AttrPred) ([]Value, bool) {
	return append([]Value(nil), e.col(ap.Attr).Select(ap.Pred)...), true
}

// selectRO answers one predicate out of an already-cracked area, or refuses
// when its column would crack or merge a pending update, or does not exist
// yet. Like selectCrack, it returns a copy of the column's view.
func (e *selCrackEngine) selectRO(ap AttrPred) ([]Value, bool) {
	c, ok := e.cols[ap.Attr]
	if !ok {
		return nil, false
	}
	view, ok := c.SelectRO(ap.Pred)
	return append([]Value(nil), view...), ok
}

func (e *selCrackEngine) Query(q Query) (Result, Cost) {
	res, cost, _ := crackQuery(q, e.selectCrack, e.base, e.dead)
	return res, cost
}

func (e *selCrackEngine) QueryRO(q Query) (Result, Cost, bool) {
	return crackQuery(q, e.selectRO, e.base, e.dead)
}

func (e *selCrackEngine) joinKeys(preds []AttrPred) ([]Value, func(string) []Value) {
	keys, _ := selectKeys(preds, false, e.selectCrack, e.base, e.dead)
	return keys, e.base
}

// crackQuery answers q by selection cracking — selectKeys, then reconstruct
// from the base columns — for the plain engine and its snapshot engine, on
// the write path and read-only alike; ok is false when selectKeys refuses.
func crackQuery(q Query, sel func(AttrPred) ([]Value, bool), base func(string) []Value, dead map[int]bool) (Result, Cost, bool) {
	var cost Cost
	t0 := time.Now()
	keys, ok := selectKeys(q.Preds, q.Disjunctive, sel, base, dead)
	if !ok {
		return Result{}, Cost{}, false
	}
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	res := reconstruct(keys, q.Projs, base)
	cost.TR = time.Since(t0)
	return res, cost, true
}

// selectKeys is selection cracking's one key-selection plan:
// crackers.select on the primary predicate (sel answers one predicate from
// its cracker column, cracking or read-only), then crackers.rel_select of
// the rest against the base columns base resolves, and dropDead; a
// disjunction unions every predicate's keys instead. ok is false when a sel
// refuses or there is no predicate. Keys come back unordered.
func selectKeys(preds []AttrPred, disjunctive bool, sel func(AttrPred) ([]Value, bool), base func(string) []Value, dead map[int]bool) ([]Value, bool) {
	if len(preds) == 0 {
		return nil, false
	}
	if disjunctive {
		seen := make(map[Value]bool)
		var keys []Value
		for _, ap := range preds {
			part, ok := sel(ap)
			if !ok {
				return nil, false
			}
			for _, k := range part {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		return keys, true
	}
	keys, ok := sel(preds[0])
	if !ok || len(preds) == 1 {
		return keys, ok
	}
	for _, ap := range preds[1:] {
		keys = crack.RelSelect(keys, base(ap.Attr), ap.Pred)
	}
	return dropDead(keys, dead), true
}

// dropDead removes keys whose tuple is tombstoned in dead but whose
// deletion has not been merged into the cracker column of the primary
// predicate yet. It filters in place: keys must be rel_select's fresh
// output, never a column's view.
func dropDead(keys []Value, dead map[int]bool) []Value {
	if len(dead) == 0 {
		return keys
	}
	out := keys[:0]
	for _, k := range keys {
		if !dead[int(k)] {
			out = append(out, k)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Presorted engine: Prepare builds a copy per selection attribute; updates
// mark every copy stale and the next query pays a full re-sort — the
// maintenance problem the paper highlights.

type presortEngine struct {
	ps    *presort.Store
	stale map[string]bool
	dead  map[int]bool
}

func (e *presortEngine) Kind() Kind { return Presorted }

// Prepare is the offline presorting step (see the package-level Prepare).
func (e *presortEngine) Prepare(attrs ...string) time.Duration {
	t0 := time.Now()
	for _, a := range attrs {
		e.rebuild(a)
	}
	return time.Since(t0)
}

func (e *presortEngine) rebuild(attr string) {
	if len(e.dead) == 0 {
		e.ps.Prepare(attr)
	} else {
		e.ps.PrepareFiltered(attr, func(key int) bool { return e.dead[key] })
	}
	delete(e.stale, attr)
}

func (e *presortEngine) Insert(vals ...Value) int {
	rel := e.ps.Relation()
	rel.AppendRow(vals...)
	for a := range e.allCopies() {
		e.stale[a] = true
	}
	return rel.NumRows() - 1
}

func (e *presortEngine) Delete(key int) {
	if e.dead[key] {
		return
	}
	// There is no efficient way to maintain presorted copies under updates
	// (Section 3.6, Exp6): every copy must be rebuilt.
	e.dead[key] = true
	for a := range e.allCopies() {
		e.stale[a] = true
	}
}

func (e *presortEngine) allCopies() map[string]bool {
	out := make(map[string]bool)
	for _, a := range e.ps.Relation().Order {
		if e.ps.CopyFor(a) != nil {
			out[a] = true
		}
	}
	return out
}

func (e *presortEngine) Storage() int {
	total := 0
	for _, a := range e.ps.Relation().Order {
		if c := e.ps.CopyFor(a); c != nil {
			total += c.Len() * len(e.ps.Relation().Order)
		}
	}
	return total
}

func (e *presortEngine) freshCopy(attr string) {
	if e.ps.CopyFor(attr) == nil || e.stale[attr] {
		e.rebuild(attr)
	}
}

func (e *presortEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	primary := q.Preds[0].Attr
	t0 := time.Now()
	e.freshCopy(primary)
	preds := make([]store.Pred, len(q.Preds))
	attrs := make([]string, len(q.Preds))
	for i, ap := range q.Preds {
		preds[i] = ap.Pred
		attrs[i] = ap.Attr
	}
	pres := e.ps.Query(preds, attrs, 0, q.Projs, q.Disjunctive)
	cost.Sel = time.Since(t0)
	// Selection and reconstruction are fused in the sorted copy; attribute
	// the (small) projection copying to TR by re-measuring it.
	t0 = time.Now()
	res := Result{Cols: pres.Cols, N: pres.N}
	cost.TR = time.Since(t0)
	return res, cost
}

// QueryRO refuses when the primary predicate's presorted copy is missing or
// stale (updates force a full re-sort on the next query). With a fresh copy
// the query is a binary search plus aligned scans — no rebuild, no mutation.
func (e *presortEngine) QueryRO(q Query) (Result, Cost, bool) {
	if len(q.Preds) == 0 {
		return Result{}, Cost{}, false
	}
	if primary := q.Preds[0].Attr; e.ps.CopyFor(primary) == nil || e.stale[primary] {
		return Result{}, Cost{}, false
	}
	res, cost := e.Query(q)
	return res, cost, true
}

// ---------------------------------------------------------------------------
// Map-set engines: sideways cracking with full maps and with partial maps.

// mapEngine adapts the map store to Engine: sideways cracking with full
// maps (Section 3) or with partial maps (Section 4).
type mapEngine struct {
	st   *sideways.Store
	kind Kind
}

func (e *mapEngine) Kind() Kind { return e.kind }

func (e *mapEngine) Insert(vals ...Value) int { return e.st.Insert(vals...) }
func (e *mapEngine) Delete(key int)           { e.st.Delete(key) }
func (e *mapEngine) Storage() int             { return e.st.StorageTuples() }

// Store returns the map store behind the engine, for advanced inspection
// (map sets, tapes, areas, storage).
func (e *mapEngine) Store() *sideways.Store { return e.st }

func (e *mapEngine) Query(q Query) (Result, Cost) {
	t0 := time.Now()
	res := e.st.MultiSelect(q.Preds, q.Projs, q.Disjunctive)
	return res, Cost{Sel: time.Since(t0)}
}

// QueryRO refuses when the query would crack a map or chunk, merge pending
// updates, materialize a map or fetch an area, or grow a cracker tape. It
// answers into q.Into when the caller lends it.
func (e *mapEngine) QueryRO(q Query) (Result, Cost, bool) {
	t0 := time.Now()
	res, ok := e.st.MultiSelectROInto(q.Into, q.Preds, q.Projs, q.Disjunctive)
	if !ok {
		return Result{}, Cost{}, false
	}
	return res, Cost{Sel: time.Since(t0)}, true
}

// ---------------------------------------------------------------------------
// Join plans (Exp4, q2).

// JoinSide describes one side of a join query: a conjunctive selection over
// E, the attribute it joins on, and the attributes whose maxima JoinMax
// reports. E may be any engine or stack.
type JoinSide struct {
	E        Engine
	Preds    []AttrPred
	JoinAttr string
	Projs    []string
}

// joinInput is one side of a join plan once selected: the join column of
// its qualifying tuples, and fetch, the post-join reconstruction of one of
// their projections by intermediate row.
type joinInput struct {
	vals  []Value
	fetch func(attr string, i int) Value
}

// joinSide evaluates the selection of one join side. A bare Scan or SelCrack
// engine materializes late: it selects keys, and post-join reconstruction
// reaches into the full base columns at them — the scattered fetch Exp4
// prices (Figure 5c). Every other engine or stack answers the side as a
// query that also projects the join attribute, and the join fetches from
// that small clustered result.
func joinSide(s JoinSide) joinInput {
	if late, ok := s.E.(interface {
		joinKeys(preds []AttrPred) ([]Value, func(string) []Value)
	}); ok {
		keys, base := late.joinKeys(s.Preds)
		return joinInput{
			vals:  gather(base(s.JoinAttr), keys),
			fetch: func(attr string, i int) Value { return base(attr)[int(keys[i])] },
		}
	}
	res, _ := s.E.Query(Query{Preds: s.Preds, Projs: append(slices.Clip(s.Projs), s.JoinAttr)})
	return joinInput{
		vals:  res.Cols[s.JoinAttr],
		fetch: func(attr string, i int) Value { return res.Cols[attr][i] },
	}
}

// JoinCost breaks a join query into the phases reported by Figure 5.
type JoinCost struct {
	PreSel time.Duration // selections + pre-join tuple reconstruction
	Join   time.Duration // the join itself
	PostTR time.Duration // post-join tuple reconstruction
}

// Total returns the summed join cost.
func (c JoinCost) Total() time.Duration { return c.PreSel + c.Join + c.PostTR }

// JoinMax evaluates "select max(projs...) from L, R where preds and
// L.join = R.join" across two engines and returns the maxima keyed by
// side-qualified attribute names ("L.attr", "R.attr"). Either side may be
// any stack, the same one on both sides included; post-join reconstruction
// fetches from base columns for bare Scan and SelCrack engines and from the
// side's clustered query answer for everything else (see joinSide).
func JoinMax(l, r JoinSide) (map[string]Value, JoinCost) {
	var jc JoinCost
	t0 := time.Now()
	li, ri := joinSide(l), joinSide(r)
	jc.PreSel = time.Since(t0)

	t0 = time.Now()
	pairs := store.Join(li.vals, ri.vals)
	jc.Join = time.Since(t0)

	t0 = time.Now()
	out := make(map[string]Value, len(l.Projs)+len(r.Projs))
	if len(pairs) > 0 {
		for _, attr := range l.Projs {
			m := li.fetch(attr, pairs[0].L)
			for _, p := range pairs[1:] {
				if v := li.fetch(attr, p.L); v > m {
					m = v
				}
			}
			out["L."+attr] = m
		}
		for _, attr := range r.Projs {
			m := ri.fetch(attr, pairs[0].R)
			for _, p := range pairs[1:] {
				if v := ri.fetch(attr, p.R); v > m {
					m = v
				}
			}
			out["R."+attr] = m
		}
	}
	jc.PostTR = time.Since(t0)
	return out, jc
}
