// Package bitvec provides a dense bit vector used for multi-predicate
// filtering in sideways cracking (Section 3.3 of the paper). Conjunctive
// query plans create a bit vector sized to the candidate area of the most
// selective predicate and successive selections clear bits of tuples that
// fail their predicate; disjunctive plans start with a vector sized to the
// whole map and successively set bits.
package bitvec

import "math/bits"

const wordBits = 64

// Vector is a fixed-size bit vector. The zero value is an empty vector;
// use New to create one with a given length.
type Vector struct {
	words []uint64
	n     int
}

// New returns a vector of n bits, all clear.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i.
func (v *Vector) Set(i int) { v.words[i/wordBits] |= 1 << uint(i%wordBits) }

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool { return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// The three kernels below are the word-at-a-time finish of a multi-selection
// (select_create_bv, select_refine_bv, reconstruct). A closed interval
// lo <= x <= hi with lo <= hi is one unsigned compare, uint64(x-lo) <=
// uint64(hi-lo), whatever the signs of the bounds; bits.Sub64 hands back its
// borrow as a value, so 64 tuples become one word without a branch.

// rangeWord returns the word whose bit j is set iff lo <= vals[j] <= lo+span
// (span as an unsigned distance); len(vals) <= 64 and higher bits are clear.
func rangeWord(vals []int64, lo int64, span uint64) uint64 {
	var miss uint64
	for j, x := range vals {
		_, borrow := bits.Sub64(span, uint64(x-lo), 0)
		miss |= borrow << (uint(j) & (wordBits - 1))
	}
	return ^miss & (^uint64(0) >> uint(wordBits-len(vals)))
}

// FromRange returns a vector of len(vals) bits, bit i set iff
// lo <= vals[i] <= hi. An interval with lo > hi selects nothing.
func FromRange(vals []int64, lo, hi int64) *Vector {
	v := New(len(vals))
	if lo > hi {
		return v
	}
	span := uint64(hi - lo)
	for wi := range v.words {
		v.words[wi] = rangeWord(vals[wi*wordBits:min((wi+1)*wordBits, len(vals))], lo, span)
	}
	return v
}

// AndRange clears bit i unless lo <= vals[i] <= hi; len(vals) must be Len().
// Words that are already empty are not read from vals.
func (v *Vector) AndRange(vals []int64, lo, hi int64) {
	if len(vals) != v.n {
		panic("bitvec: length mismatch")
	}
	if lo > hi {
		clear(v.words)
		return
	}
	span := uint64(hi - lo)
	for wi, w := range v.words {
		if w != 0 {
			v.words[wi] = w & rangeWord(vals[wi*wordBits:min((wi+1)*wordBits, len(vals))], lo, span)
		}
	}
}

// Gather writes src[i] for every set bit i, ascending, to the front of dst
// and returns how many it wrote: Count(). dst must have room for them and
// len(src) must be Len().
func (v *Vector) Gather(dst, src []int64) int {
	if len(src) != v.n {
		panic("bitvec: length mismatch")
	}
	n := 0
	for wi, w := range v.words {
		base := src[wi*wordBits:]
		if w == ^uint64(0) {
			n += copy(dst[n:], base[:wordBits])
			continue
		}
		for ; w != 0; w &= w - 1 {
			dst[n] = base[bits.TrailingZeros64(w)]
			n++
		}
	}
	return n
}
