package engine

import (
	"time"

	"crackstore/internal/rowstore"
	"crackstore/internal/store"
)

// RowStore is the N-ary row-store engine kind (the "MySQL presorted"
// reference series of Figure 14). It is read-only: the paper uses it only
// for TPC-H query sequences.
const RowStore Kind = 100

// rowStoreEngine is the row-store engine. Prepare(attr) builds a copy
// sorted on attr that queries with a matching primary predicate use.
type rowStoreEngine struct {
	rel    *store.Relation
	plain  *rowstore.Table
	sorted map[string]*rowstore.Table
}

func (e *rowStoreEngine) Kind() Kind { return RowStore }

func (e *rowStoreEngine) Insert(vals ...Value) int {
	panic("engine: the row-store reference engine is read-only")
}

func (e *rowStoreEngine) Delete(key int) {
	panic("engine: the row-store reference engine is read-only")
}

func (e *rowStoreEngine) Prepare(attrs ...string) time.Duration {
	t0 := time.Now()
	for _, a := range attrs {
		e.sorted[a] = e.plain.SortBy(a)
	}
	return time.Since(t0)
}

func (e *rowStoreEngine) Storage() int {
	return len(e.sorted) * len(e.plain.Rows)
}

func (e *rowStoreEngine) tableFor(preds []AttrPred) (*rowstore.Table, string) {
	if len(preds) > 0 {
		if t, ok := e.sorted[preds[0].Attr]; ok {
			return t, preds[0].Attr
		}
	}
	return e.plain, ""
}

func (e *rowStoreEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	t0 := time.Now()
	res := Result{Cols: make(map[string][]Value, len(q.Projs))}
	for _, attr := range q.Projs {
		res.Cols[attr] = []Value{}
	}
	if q.Disjunctive {
		// Tuple-at-a-time disjunction over the plain table: the row-store
		// evaluates all predicates per row with no reconstruction at all.
		fields := make([]int, len(q.Preds))
		for i, ap := range q.Preds {
			fields[i] = e.plain.Field(ap.Attr)
		}
		projF := make([]int, len(q.Projs))
		for i, a := range q.Projs {
			projF[i] = e.plain.Field(a)
		}
		for _, row := range e.plain.Rows {
			for i, ap := range q.Preds {
				if ap.Pred.Matches(row[fields[i]]) {
					res.N++
					for j, f := range projF {
						res.Cols[q.Projs[j]] = append(res.Cols[q.Projs[j]], row[f])
					}
					break
				}
			}
		}
		cost.Sel = time.Since(t0)
		return res, cost
	}
	tab, sortedOn := e.tableFor(q.Preds)
	preds := make([]rowstore.Pred, len(q.Preds))
	for i, ap := range q.Preds {
		preds[i] = rowstore.Pred{Attr: ap.Attr, P: ap.Pred}
	}
	rows := tab.Select(preds, sortedOn)
	res.N = len(rows)
	for _, attr := range q.Projs {
		f := tab.Field(attr)
		out := make([]Value, len(rows))
		for i, row := range rows {
			out[i] = row[f]
		}
		res.Cols[attr] = out
	}
	cost.Sel = time.Since(t0)
	return res, cost
}

// QueryRO: the read-only row store never reorganizes during queries.
func (e *rowStoreEngine) QueryRO(q Query) (Result, Cost, bool) {
	res, cost := e.Query(q)
	return res, cost, true
}
