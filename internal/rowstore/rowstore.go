// Package rowstore is a minimal N-ary (row-at-a-time) storage engine used
// as the "MySQL presorted" reference series in the paper's Figure 14. Rows
// are processed tuple-by-tuple, so multi-predicate evaluation needs no
// tuple reconstruction at all — the trade-off the paper discusses for
// TPC-H Query 19.
package rowstore

import (
	"sort"

	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Table is a row-store table: one []Value per tuple, with a schema mapping
// attribute names to field positions.
type Table struct {
	Attrs []string
	index map[string]int
	Rows  [][]Value
}

// New builds a row table from a columnar relation.
func New(rel *store.Relation) *Table {
	t := &Table{Attrs: append([]string(nil), rel.Order...), index: make(map[string]int)}
	for i, a := range t.Attrs {
		t.index[a] = i
	}
	n := rel.NumRows()
	cols := make([][]Value, len(t.Attrs))
	for i, a := range t.Attrs {
		cols[i] = rel.MustColumn(a).Vals
	}
	t.Rows = make([][]Value, n)
	for r := 0; r < n; r++ {
		row := make([]Value, len(cols))
		for c := range cols {
			row[c] = cols[c][r]
		}
		t.Rows[r] = row
	}
	return t
}

// Field returns the position of attr in each row.
func (t *Table) Field(attr string) int {
	i, ok := t.index[attr]
	if !ok {
		panic("rowstore: unknown attribute " + attr)
	}
	return i
}

// SortBy returns a copy of the table sorted on attr (the presorted-MySQL
// configuration of Figure 14).
func (t *Table) SortBy(attr string) *Table {
	f := t.Field(attr)
	out := &Table{Attrs: t.Attrs, index: t.index, Rows: make([][]Value, len(t.Rows))}
	copy(out.Rows, t.Rows)
	sort.SliceStable(out.Rows, func(i, j int) bool { return out.Rows[i][f] < out.Rows[j][f] })
	return out
}

// Pred pairs an attribute with a range predicate.
type Pred struct {
	Attr string
	P    store.Pred
}

// Select returns the rows matching all preds, scanning tuple-by-tuple. If
// the table is sorted on preds[0].Attr, the scan starts and stops via
// binary search on that attribute.
func (t *Table) Select(preds []Pred, sortedOn string) [][]Value {
	lo, hi := 0, len(t.Rows)
	if len(preds) > 0 && sortedOn == preds[0].Attr {
		f := t.Field(sortedOn)
		p := preds[0].P
		lo = sort.Search(len(t.Rows), func(i int) bool {
			v := t.Rows[i][f]
			if p.LoIncl {
				return v >= p.Lo
			}
			return v > p.Lo
		})
		hi = sort.Search(len(t.Rows), func(i int) bool {
			v := t.Rows[i][f]
			if p.HiIncl {
				return v > p.Hi
			}
			return v >= p.Hi
		})
		if hi < lo {
			hi = lo
		}
	}
	var out [][]Value
	for i := lo; i < hi; i++ {
		row := t.Rows[i]
		ok := true
		for _, pr := range preds {
			if !pr.P.Matches(row[t.Field(pr.Attr)]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}
