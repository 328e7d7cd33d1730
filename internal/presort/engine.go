package presort

import (
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// Kind is the presorted baseline's engine kind. It lies outside the kinds
// the store serves (engine.Kinds), so no serving layer takes it for one of
// them.
const Kind engine.Kind = 101

// Engine adapts a Store to engine.Engine for the experiments: Prepare builds
// a copy per selection attribute, and a query whose primary attribute has
// no copy yet builds one first. It is read-only: Insert and Delete panic,
// since the paper excludes presorted copies from its update experiments.
type Engine struct{ ps *Store }

// NewEngine wraps rel (not copied) in a presorted engine with no copies yet.
func NewEngine(rel *store.Relation) *Engine { return &Engine{ps: NewStore(rel)} }

func (e *Engine) Kind() engine.Kind { return Kind }

// Prepare is the offline presorting step: one sorted copy per attribute.
// It returns its cost, which the experiments report apart from queries.
func (e *Engine) Prepare(attrs ...string) time.Duration {
	t0 := time.Now()
	for _, a := range attrs {
		e.ps.Prepare(a)
	}
	return time.Since(t0)
}

func (e *Engine) Insert(vals ...engine.Value) int {
	panic("presort: the presorted baseline is read-only")
}

func (e *Engine) Delete(key int) {
	panic("presort: the presorted baseline is read-only")
}

// Storage counts every copy's tuples times the relation's width.
func (e *Engine) Storage() int {
	total := 0
	for _, c := range e.ps.copies {
		total += c.Len() * len(e.ps.rel.Order)
	}
	return total
}

// Query answers q off the copy sorted on its first predicate's attribute.
// Selection and reconstruction are fused in the sorted copy, so the whole
// cost is selection.
func (e *Engine) Query(q engine.Query) (engine.Result, engine.Cost) {
	t0 := time.Now()
	preds := make([]store.Pred, len(q.Preds))
	attrs := make([]string, len(q.Preds))
	for i, ap := range q.Preds {
		preds[i], attrs[i] = ap.Pred, ap.Attr
	}
	res := e.ps.Query(preds, attrs, 0, q.Projs, q.Disjunctive)
	return res, engine.Cost{Sel: time.Since(t0)}
}

// QueryRO refuses when the primary predicate's copy is missing: building it
// is the one thing a query here can change.
func (e *Engine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	if len(q.Preds) == 0 || e.ps.copies[q.Preds[0].Attr] == nil {
		return engine.Result{}, engine.Cost{}, false
	}
	res, cost := e.Query(q)
	return res, cost, true
}
