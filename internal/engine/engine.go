// Package engine provides a uniform query executor over the physical
// designs the store serves:
//
//	Scan            — plain column-store (MonetDB baseline): full scans,
//	                  order-preserving selects, positional reconstruction;
//	                  the oracle every other design is checked against
//	SelCrack        — selection cracking (CIDR 2007): cracker columns,
//	                  each a map set's key map in the map store,
//	                  unordered results, random-access reconstruction
//	Sideways        — sideways cracking with full maps (Section 3)
//	PartialSideways — partial sideways cracking (Section 4)
//
// All four answer the same Query type and support the same update API, so
// every stack above them serves each alike. The paper's yardsticks — the
// presorted copies of internal/presort and the row store of
// internal/rowstore — implement Engine too, so the experiment harness can
// replay identical workloads against them, but they are read-only and no
// serving layer builds them. Costs are split into selection (locating
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
	"crackstore/internal/sideways"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// AttrPred pairs an attribute with a range predicate.
type AttrPred = sideways.AttrPred

// Kind identifies a physical design.
type Kind int

// The kinds the store serves. A baseline outside this package declares its
// own Kind value beyond these; nothing here builds or names it.
const (
	Scan Kind = iota
	SelCrack
	Sideways
	PartialSideways
)

// Kinds lists the kinds the store serves, in declaration order.
func Kinds() []Kind { return []Kind{Scan, SelCrack, Sideways, PartialSideways} }

func (k Kind) String() string {
	switch k {
	case Scan:
		return "scan"
	case SelCrack:
		return "selcrack"
	case Sideways:
		return "sideways"
	case PartialSideways:
		return "partial"
	}
	return "unknown"
}

// KindByName maps the String() form of one of Kinds back to its Kind, for
// command-line and configuration surfaces.
func KindByName(name string) (Kind, bool) {
	for _, k := range Kinds() {
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
	// unlimited. A full map of n tuples costs n, or ⌈n/2⌉ when it is a tail
	// that follows the head of a map the same query created. A chunk of n
	// tuples costs ⌈n/2⌉: it is a tail whose head the area's span of the
	// chunk map holds (Section 4.1, "Dropping the Head Column"). A span
	// costs nothing until its area's first insert or delete merges; from
	// then on it has columns of its own and costs its length.
	Budget int
}

// NewWith constructs an engine of the given kind over rel (not copied),
// configured by opts. It is the one place a base engine is built.
func NewWith(kind Kind, rel *store.Relation, opts Options) Engine {
	switch kind {
	case Scan:
		return &scanEngine{rel: rel}
	case SelCrack:
		st := sideways.NewStore(rel)
		st.Policy = opts.Policy
		return &selCrackEngine{mapEngine{st: st, kind: SelCrack}}
	case Sideways, PartialSideways:
		st := sideways.NewStore(rel)
		if kind == PartialSideways {
			st = sideways.NewPartialStore(rel)
		}
		st.Policy, st.Budget = opts.Policy, opts.Budget
		return &mapEngine{st: st, kind: kind}
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
	rel *store.Relation
}

func (e *scanEngine) Kind() Kind { return Scan }

func (e *scanEngine) Insert(vals ...Value) int {
	e.rel.AppendRow(vals...)
	return e.rel.NumRows() - 1
}

// Delete tombstones key; a key no tuple has is ignored, as by every engine.
func (e *scanEngine) Delete(key int) { e.rel.Delete(key) }

func (e *scanEngine) Storage() int { return 0 }

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
		if e.rel.IsDeleted(i) {
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
// Selection cracking engine (CIDR 2007): a cracker column per selection
// attribute, crackers.select + rel_select plans, and random-access tuple
// reconstruction from base columns.

// selCrackEngine is selection cracking over the map store: the cracker
// column C_A of (value, key) pairs is S_A's key map, the only map its sets
// ever get, so it shares the store's pending-update ledger, delete location
// and tape. It keeps selection cracking's own plan (selectKeys) rather than
// the store's: select on the primary predicate, rel_select of the rest, and
// a gather through the keys.
type selCrackEngine struct{ mapEngine }

func (e *selCrackEngine) base(attr string) []Value { return e.st.Relation().MustColumn(attr).Vals }

// selectCrack answers one predicate by crackers.select on its column, read
// only when it can be, so the set's tape grows only by selections that
// reorganize. The keys are copied out of the column's view, which the next
// crack moves — a join side holds its keys across the other side's
// selection.
func (e *selCrackEngine) selectCrack(ap AttrPred) ([]Value, bool) {
	keys, ok := e.st.KeysRO(ap.Attr, ap.Pred)
	if !ok {
		keys = e.st.Keys(ap.Attr, ap.Pred)
	}
	return slices.Clone(keys), true
}

// selectRO answers one predicate out of an already-cracked area, or refuses
// when its column would crack or merge a pending update, or does not exist
// yet. Unlike selectCrack it returns the column's view itself: the view is
// read under the caller's guard, nothing cracks the column while it is held,
// and every consumer only reads it or copies it — reconstruct's gather,
// relSelect's fresh output, the disjunctive union.
func (e *selCrackEngine) selectRO(ap AttrPred) ([]Value, bool) {
	return e.st.KeysRO(ap.Attr, ap.Pred)
}

func (e *selCrackEngine) Query(q Query) (Result, Cost) {
	res, cost, _ := crackQuery(q, e.selectCrack, e.base)
	return res, cost
}

func (e *selCrackEngine) QueryRO(q Query) (Result, Cost, bool) {
	return crackQuery(q, e.selectRO, e.base)
}

func (e *selCrackEngine) joinKeys(preds []AttrPred) ([]Value, func(string) []Value) {
	keys, _ := selectKeys(preds, false, e.selectCrack, e.base)
	return keys, e.base
}

// crackQuery answers q by selection cracking — selectKeys, then reconstruct
// from the base columns — for the plain engine and its snapshot engine, on
// the write path and read-only alike; ok is false when selectKeys refuses.
func crackQuery(q Query, sel func(AttrPred) ([]Value, bool), base func(string) []Value) (Result, Cost, bool) {
	var cost Cost
	t0 := time.Now()
	keys, ok := selectKeys(q.Preds, q.Disjunctive, sel, base)
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
// its cracker column, cracking or read-only, and never returns a deleted
// tuple), then crackers.rel_select of the rest against the base columns
// base resolves; a disjunction unions every predicate's keys instead. ok is
// false when a sel refuses or there is no predicate. Keys come back
// unordered.
func selectKeys(preds []AttrPred, disjunctive bool, sel func(AttrPred) ([]Value, bool), base func(string) []Value) ([]Value, bool) {
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
	if !ok {
		return nil, false
	}
	for _, ap := range preds[1:] {
		keys = relSelect(keys, base(ap.Attr), ap.Pred)
	}
	return keys, true
}

// relSelect is operator crackers.rel_select (Section 2.2): for conjunctive
// queries, subsequent selections filter a prior intermediate result instead
// of cracking. Given keys from a previous selection and the base column
// values of the next attribute, it performs select and reconstruct in one go
// using positional key lookups (random access, since keys are unordered).
// The output is fresh: keys may be a cracker column's view.
func relSelect(keys, base []Value, pred store.Pred) []Value {
	var out []Value
	for _, k := range keys {
		if pred.Matches(base[int(k)]) {
			out = append(out, k)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Map-set engines: sideways cracking with full maps and with partial maps.

// mapEngine adapts the map store to Engine: sideways cracking with full
// maps (Section 3) or with partial maps (Section 4), and the store side of
// selection cracking (selCrackEngine).
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
