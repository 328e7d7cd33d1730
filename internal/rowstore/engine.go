package rowstore

import (
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// Kind is the row store's engine kind. It lies outside the kinds the store
// serves (engine.Kinds), so no serving layer takes it for one of them.
const Kind engine.Kind = 100

// Engine adapts a Table to engine.Engine for the experiments: Prepare(attr)
// builds a copy sorted on attr that queries with a matching primary
// predicate use. It is read-only: the paper uses the row store only for
// TPC-H query sequences.
type Engine struct {
	plain  *Table
	sorted map[string]*Table
}

// NewEngine builds the row table of rel, with no sorted copies yet.
func NewEngine(rel *store.Relation) *Engine {
	return &Engine{plain: New(rel), sorted: make(map[string]*Table)}
}

func (e *Engine) Kind() engine.Kind { return Kind }

func (e *Engine) Insert(vals ...engine.Value) int {
	panic("rowstore: the row-store baseline is read-only")
}

func (e *Engine) Delete(key int) {
	panic("rowstore: the row-store baseline is read-only")
}

// Prepare is the offline step: one copy sorted on each of attrs. It returns
// its cost, which the experiments report apart from queries.
func (e *Engine) Prepare(attrs ...string) time.Duration {
	t0 := time.Now()
	for _, a := range attrs {
		e.sorted[a] = e.plain.SortBy(a)
	}
	return time.Since(t0)
}

func (e *Engine) Storage() int {
	return len(e.sorted) * len(e.plain.Rows)
}

func (e *Engine) tableFor(preds []engine.AttrPred) (*Table, string) {
	if len(preds) > 0 {
		if t, ok := e.sorted[preds[0].Attr]; ok {
			return t, preds[0].Attr
		}
	}
	return e.plain, ""
}

// Query selects whole rows and copies their projected fields: the row store
// evaluates every predicate per row with no tuple reconstruction at all.
// Selection and projection are one pass, so the whole cost is selection.
func (e *Engine) Query(q engine.Query) (engine.Result, engine.Cost) {
	t0 := time.Now()
	tab := e.plain
	var rows [][]Value
	if q.Disjunctive {
		// Tuple-at-a-time disjunction over the plain table.
		fields := make([]int, len(q.Preds))
		for i, ap := range q.Preds {
			fields[i] = tab.Field(ap.Attr)
		}
		for _, row := range tab.Rows {
			for i, ap := range q.Preds {
				if ap.Pred.Matches(row[fields[i]]) {
					rows = append(rows, row)
					break
				}
			}
		}
	} else {
		var sortedOn string
		tab, sortedOn = e.tableFor(q.Preds)
		preds := make([]Pred, len(q.Preds))
		for i, ap := range q.Preds {
			preds[i] = Pred{Attr: ap.Attr, P: ap.Pred}
		}
		rows = tab.Select(preds, sortedOn)
	}
	res := engine.Result{Cols: make(map[string][]Value, len(q.Projs)), N: len(rows)}
	for _, attr := range q.Projs {
		f := tab.Field(attr)
		out := make([]Value, len(rows))
		for i, row := range rows {
			out[i] = row[f]
		}
		res.Cols[attr] = out
	}
	return res, engine.Cost{Sel: time.Since(t0)}
}

// QueryRO: the read-only row store never reorganizes during queries.
func (e *Engine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	res, cost := e.Query(q)
	return res, cost, true
}
