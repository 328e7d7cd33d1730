// Package store implements the column-store kernel the paper builds on: a
// MonetDB-style binary-association-table (BAT) model where every attribute
// of a relation is stored as a separate column in tuple insertion order and
// the key (tuple id / position) is a virtual dense sequence (Section 2.1).
//
// The package provides the base physical algebra: range predicates and the
// cracker-index bounds they map to, positional tuple reconstruction, hash
// join, order-by, min and max, and a scanning count (SelectCount) that
// serves as the reference answer. All higher layers — selection cracking,
// sideways cracking, and partial sideways cracking — operate on columns
// from this kernel.
package store

import (
	"fmt"
	"sort"

	"crackstore/internal/crackindex"
)

// Value is the attribute value type. The paper evaluates on integer columns;
// strings in TPC-H are dictionary-encoded to Values (see internal/tpch).
type Value = int64

// Pred is a one-attribute range predicate: Lo (<|<=) A (<|<=) Hi, with
// inclusivity controlled by LoIncl and HiIncl. A point predicate is
// Pred{V, V, true, true}.
type Pred struct {
	Lo, Hi         Value
	LoIncl, HiIncl bool
}

// Range returns the predicate lo <= v < hi, the common half-open form.
func Range(lo, hi Value) Pred { return Pred{Lo: lo, Hi: hi, LoIncl: true, HiIncl: false} }

// Open returns the predicate lo < v < hi as used in the paper's examples.
func Open(lo, hi Value) Pred { return Pred{Lo: lo, Hi: hi} }

// Point returns the predicate v == x.
func Point(x Value) Pred { return Pred{Lo: x, Hi: x, LoIncl: true, HiIncl: true} }

// Matches reports whether v satisfies the predicate.
func (p Pred) Matches(v Value) bool {
	if v < p.Lo || (v == p.Lo && !p.LoIncl) {
		return false
	}
	if v > p.Hi || (v == p.Hi && !p.HiIncl) {
		return false
	}
	return true
}

// LowerBound returns the predicate's lower bound in cracker-index boundary
// semantics: the boundary such that all positions at or after it satisfy
// the lower half of the predicate.
func (p Pred) LowerBound() crackindex.Bound {
	return crackindex.Bound{V: p.Lo, Incl: p.LoIncl}
}

// UpperBound returns the predicate's upper bound in boundary semantics: the
// boundary such that all positions at or after it violate the upper half.
func (p Pred) UpperBound() crackindex.Bound {
	if p.HiIncl {
		return crackindex.Bound{V: p.Hi, Incl: false} // non-qualifying: v > Hi
	}
	return crackindex.Bound{V: p.Hi, Incl: true} // non-qualifying: v >= Hi
}

func (p Pred) String() string {
	lo, hi := "<", "<"
	if p.LoIncl {
		lo = "<="
	}
	if p.HiIncl {
		hi = "<="
	}
	return fmt.Sprintf("%d%sA%s%d", p.Lo, lo, hi, p.Hi)
}

// Column is a base column: attribute values in tuple insertion order. The
// key column is virtual — the key of Vals[i] is i.
type Column struct {
	Name string
	Vals []Value
}

// NewColumn returns a column with the given values (not copied).
func NewColumn(name string, vals []Value) *Column { return &Column{Name: name, Vals: vals} }

// Len returns the number of tuples.
func (c *Column) Len() int { return len(c.Vals) }

// Relation is a named set of aligned base columns. All columns have equal
// length; position i across all columns forms relational tuple i. Columns
// are append-only: a deleted tuple keeps its position and is tombstoned.
type Relation struct {
	Name  string
	Order []string // attribute order, for stable iteration
	cols  map[string]*Column
	dead  map[int]bool // tombstoned keys; at most NumRows of them
}

// NewRelation returns an empty relation with the given attribute names.
func NewRelation(name string, attrs ...string) *Relation {
	r := &Relation{Name: name, cols: make(map[string]*Column, len(attrs))}
	for _, a := range attrs {
		r.Order = append(r.Order, a)
		r.cols[a] = NewColumn(a, nil)
	}
	return r
}

// Build constructs a relation of n rows where gen(attr, row) supplies each
// value. Attribute order follows attrs.
func Build(name string, n int, attrs []string, gen func(attr string, row int) Value) *Relation {
	r := NewRelation(name, attrs...)
	for _, a := range attrs {
		col := r.cols[a]
		col.Vals = make([]Value, n)
		for i := 0; i < n; i++ {
			col.Vals[i] = gen(a, i)
		}
	}
	return r
}

// Column returns the named column, or nil if absent.
func (r *Relation) Column(name string) *Column { return r.cols[name] }

// MustColumn returns the named column and panics if it does not exist.
func (r *Relation) MustColumn(name string) *Column {
	c := r.cols[name]
	if c == nil {
		panic(fmt.Sprintf("store: relation %q has no column %q", r.Name, name))
	}
	return c
}

// NumRows returns the number of tuples in the relation.
func (r *Relation) NumRows() int {
	if len(r.Order) == 0 {
		return 0
	}
	return r.cols[r.Order[0]].Len()
}

// AppendRow appends one tuple; vals must follow attribute order.
func (r *Relation) AppendRow(vals ...Value) {
	if len(vals) != len(r.Order) {
		panic("store: AppendRow arity mismatch")
	}
	for i, a := range r.Order {
		c := r.cols[a]
		c.Vals = append(c.Vals, vals[i])
	}
}

// Delete tombstones the tuple with the given key. It reports false, and
// changes nothing, for a key no tuple has (negative or beyond the last row)
// and for a key already deleted.
func (r *Relation) Delete(key int) bool {
	if key < 0 || key >= r.NumRows() || r.dead[key] {
		return false
	}
	if r.dead == nil {
		r.dead = make(map[int]bool)
	}
	r.dead[key] = true
	return true
}

// IsDeleted reports whether the tuple with the given key is tombstoned.
func (r *Relation) IsDeleted(key int) bool { return r.dead[key] }

// Deleted returns the tombstoned keys in ascending order.
func (r *Relation) Deleted() []int {
	keys := make([]int, 0, len(r.dead))
	for k := range r.dead {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// SelectCount returns the number of tuples of col that match p, by a full
// scan.
func SelectCount(col *Column, p Pred) int {
	n := 0
	for _, v := range col.Vals {
		if p.Matches(v) {
			n++
		}
	}
	return n
}

// Reconstruct fetches col values at the given positions, in the given order
// (operator reconstruct(A,r) of Section 2.1). If positions are ascending the
// access pattern is sequential/cache-friendly; otherwise it is random.
func Reconstruct(col *Column, positions []int) []Value {
	out := make([]Value, len(positions))
	for i, p := range positions {
		out[i] = col.Vals[p]
	}
	return out
}

// JoinPair is one match produced by Join: positions into the left and right
// inputs.
type JoinPair struct{ L, R int }

// Join performs a hash join between the values of two position lists over
// their columns: it matches lVals[i] == rVals[j] where lVals/rVals are the
// reconstructed values at lPos/rPos. Tuple order is preserved for the outer
// (left) input only, as in MonetDB's join (Section 2.1).
func Join(lVals, rVals []Value) []JoinPair {
	ht := make(map[Value][]int, len(rVals))
	for j, v := range rVals {
		ht[v] = append(ht[v], j)
	}
	var out []JoinPair
	for i, v := range lVals {
		for _, j := range ht[v] {
			out = append(out, JoinPair{L: i, R: j})
		}
	}
	return out
}

// OrderBy returns a permutation of 0..len(vals)-1 that sorts vals ascending.
// The sort is stable so ties keep input order.
func OrderBy(vals []Value) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return idx
}

// Max returns the maximum of vals; ok is false when vals is empty.
func Max(vals []Value) (m Value, ok bool) {
	if len(vals) == 0 {
		return 0, false
	}
	m = vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m, true
}

// MinMax returns the minimum and maximum of vals in one pass; ok is false
// when vals is empty.
func MinMax(vals []Value) (lo, hi Value, ok bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, true
}

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed integer
// hash shared by value-to-shard routing and deterministic pivot sampling.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
