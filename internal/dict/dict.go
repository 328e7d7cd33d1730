// Package dict provides an order-preserving string dictionary: strings are
// encoded as their rank in sorted order, so string range and prefix
// predicates become integer range predicates — which makes string columns
// crackable by the integer cracking machinery. The paper's conclusions
// name "string cracking" as future work; this dictionary is the standard
// way column-stores (including MonetDB) bring strings into an
// integer-ordered domain, and it is what internal/tpch's categorical
// attributes model.
//
// The dictionary is immutable once built: a string it has not seen has no
// code, and adding one would renumber the ranks of every stored code.
package dict

import (
	"sort"

	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Dict maps strings to dense, order-preserving codes 0..Len()-1.
type Dict struct {
	strs  []string
	codes map[string]Value
}

// Build returns a dictionary over the distinct values in vals. Codes are
// assigned by sorted rank, so s1 < s2 implies Code(s1) < Code(s2).
func Build(vals []string) *Dict {
	uniq := make(map[string]bool, len(vals))
	for _, s := range vals {
		uniq[s] = true
	}
	strs := make([]string, 0, len(uniq))
	for s := range uniq {
		strs = append(strs, s)
	}
	sort.Strings(strs)
	d := &Dict{strs: strs, codes: make(map[string]Value, len(strs))}
	for i, s := range strs {
		d.codes[s] = Value(i)
	}
	return d
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return len(d.strs) }

// Code returns the code of s; ok is false for unknown strings.
func (d *Dict) Code(s string) (Value, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// String returns the string for code c. Panics on out-of-range codes.
func (d *Dict) String(c Value) string { return d.strs[int(c)] }

// Encode maps vals to codes. Unknown strings yield code -1.
func (d *Dict) Encode(vals []string) []Value {
	out := make([]Value, len(vals))
	for i, s := range vals {
		if c, ok := d.codes[s]; ok {
			out[i] = c
		} else {
			out[i] = -1
		}
	}
	return out
}

// RangePred returns the code predicate equivalent to lo <= s <= hi in
// string order. Bounds need not be present in the dictionary.
func (d *Dict) RangePred(lo, hi string) store.Pred {
	l := sort.SearchStrings(d.strs, lo)
	h := sort.SearchStrings(d.strs, hi)
	hIncl := false
	if h < len(d.strs) && d.strs[h] == hi {
		hIncl = true
	}
	return store.Pred{Lo: Value(l), Hi: Value(h), LoIncl: true, HiIncl: hIncl}
}

// PrefixPred returns the code predicate matching all strings with the
// given prefix — a contiguous code range thanks to order preservation.
// An empty prefix matches everything.
func (d *Dict) PrefixPred(prefix string) store.Pred {
	l := sort.SearchStrings(d.strs, prefix)
	h := len(d.strs)
	if next, ok := nextPrefix(prefix); ok {
		h = sort.SearchStrings(d.strs, next)
	}
	return store.Pred{Lo: Value(l), Hi: Value(h), LoIncl: true, HiIncl: false}
}

// nextPrefix returns the smallest string greater than every string with
// the given prefix (increment the last byte, with carry). ok is false when
// no such string exists (prefix is empty or all 0xff).
func nextPrefix(p string) (string, bool) {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
