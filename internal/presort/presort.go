// Package presort implements the "ultimate physical design" baseline the
// paper compares against (Sections 1 and 3.6): multiple presorted copies of
// a relation, one per selection attribute. Selections become binary
// searches; all other attributes of a copy are reordered along with the
// sort attribute, so tuple reconstruction is a slice of a contiguous area.
//
// Preparing a copy is expensive (the paper reports 3-14 minutes for TPC-H
// scale 1) and there is no efficient way to maintain sorted copies under
// updates, which is exactly the restriction sideways cracking removes. The
// baseline is therefore read-only: Engine, its engine.Engine adapter, is a
// yardstick the experiments (internal/exp, internal/tpch) build and
// Prepare themselves, and no serving layer builds it.
package presort

import (
	"sort"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Copy is one presorted replica of a relation, ordered by Attr.
type Copy struct {
	Attr string
	cols map[string][]Value
	key  []Value // sorted values of Attr
}

// Len returns the number of tuples.
func (c *Copy) Len() int { return len(c.key) }

// Store holds a base relation and its presorted copies.
type Store struct {
	rel    *store.Relation
	copies map[string]*Copy
}

// NewStore wraps rel (not copied).
func NewStore(rel *store.Relation) *Store {
	return &Store{rel: rel, copies: make(map[string]*Copy)}
}

// Prepare builds (or rebuilds) the copy sorted on attr. This is the heavy
// offline step; experiments report its cost separately.
func (s *Store) Prepare(attr string) *Copy {
	perm := store.OrderBy(s.rel.MustColumn(attr).Vals)
	c := &Copy{Attr: attr, cols: make(map[string][]Value, len(s.rel.Order))}
	for _, name := range s.rel.Order {
		src := s.rel.MustColumn(name).Vals
		dst := make([]Value, len(perm))
		for i, p := range perm {
			dst[i] = src[p]
		}
		c.cols[name] = dst
	}
	c.key = c.cols[attr]
	s.copies[attr] = c
	return c
}

// Area returns the contiguous index range [lo, hi) of tuples matching pred
// using binary search on the sort column.
func (c *Copy) Area(pred store.Pred) (lo, hi int) {
	lo = sort.Search(len(c.key), func(i int) bool {
		v := c.key[i]
		if pred.LoIncl {
			return v >= pred.Lo
		}
		return v > pred.Lo
	})
	hi = sort.Search(len(c.key), func(i int) bool {
		v := c.key[i]
		if pred.HiIncl {
			return v > pred.Hi
		}
		return v >= pred.Hi
	})
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Query evaluates a conjunctive (or disjunctive) multi-selection with
// projections using the copy sorted on the attribute of preds[primary].
// A missing copy is prepared first. Like the sideways plan, secondary
// predicates are applied by scanning the aligned area.
func (s *Store) Query(preds []store.Pred, attrs []string, primary int, projs []string, disjunctive bool) engine.Result {
	c := s.copies[attrs[primary]]
	if c == nil {
		c = s.Prepare(attrs[primary])
	}
	// A disjunction tests every tuple of the copy; a conjunction only the
	// primary predicate's area, against the other predicates.
	lo, hi := 0, c.Len()
	if !disjunctive {
		lo, hi = c.Area(preds[primary])
	}
	keep := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		match := !disjunctive
		for j, attr := range attrs {
			if j == primary && !disjunctive {
				continue
			}
			if preds[j].Matches(c.cols[attr][i]) == disjunctive {
				match = disjunctive
				break
			}
		}
		if match {
			keep = append(keep, i)
		}
	}
	res := engine.Result{Cols: make(map[string][]Value, len(projs)), N: len(keep)}
	for _, attr := range projs {
		col := c.cols[attr]
		out := make([]Value, len(keep))
		for i, p := range keep {
			out[i] = col[p]
		}
		res.Cols[attr] = out
	}
	return res
}
