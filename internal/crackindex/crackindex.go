// Package crackindex implements the cracker index: an AVL tree that records
// how the value range of a cracked column (or cracker map) is partitioned
// into pieces (Section 2.2 of the paper).
//
// A boundary (V, Incl, Pos) states that the column is physically partitioned
// at position Pos such that
//
//	for all i >= Pos: value(i) >= V   (if Incl)
//	for all i >= Pos: value(i) >  V   (if !Incl)
//
// and symmetrically all positions before Pos hold smaller values. Pieces are
// the position intervals between consecutive boundaries. The index doubles as
// a self-organizing histogram (Section 3.3): piece sizes give exact tuple
// counts for ranges that match existing boundaries and tight bounds plus an
// interpolated estimate otherwise.
//
// Boundaries are only ever added or moved: a piece never merges back, so
// the tree never removes a node.
package crackindex

import "fmt"

// Bound identifies one side of a range predicate in boundary semantics.
// For a lower bound "A > v" use Bound{v, false}; for "A >= v" use {v, true}.
// For an upper bound "A < v" use {v, true} (tuples from the boundary on are
// >= v, i.e. non-qualifying); for "A <= v" use {v, false}.
type Bound struct {
	V    int64
	Incl bool // boundary means: positions >= Pos have value >= V (else > V)
}

// Less orders boundaries: for equal values, the inclusive (>=) boundary
// precedes the exclusive (>) one, since >= v starts at or before > v.
func (b Bound) Less(o Bound) bool {
	if b.V != o.V {
		return b.V < o.V
	}
	return b.Incl && !o.Incl
}

func (b Bound) String() string {
	if b.Incl {
		return fmt.Sprintf(">=%d", b.V)
	}
	return fmt.Sprintf(">%d", b.V)
}

type node struct {
	b    Bound
	pos  int
	h    int
	l, r *node
}

// Index is a cracker index. The zero value is not usable; call New.
type Index struct {
	root *node
	n    int // boundaries
}

// New returns an empty index.
func New() *Index { return &Index{} }

// Len returns the number of boundaries.
func (ix *Index) Len() int { return ix.n }

// Pieces returns the number of pieces a column of the given length is
// divided into (boundaries + 1).
func (ix *Index) Pieces() int { return ix.n + 1 }

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.h
}

func fix(n *node) *node {
	n.h = 1 + max(height(n.l), height(n.r))
	bf := height(n.l) - height(n.r)
	switch {
	case bf > 1:
		if height(n.l.l) < height(n.l.r) {
			n.l = rotL(n.l)
		}
		return rotR(n)
	case bf < -1:
		if height(n.r.r) < height(n.r.l) {
			n.r = rotR(n.r)
		}
		return rotL(n)
	}
	return n
}

func rotR(n *node) *node {
	l := n.l
	n.l = l.r
	l.r = n
	n.h = 1 + max(height(n.l), height(n.r))
	l.h = 1 + max(height(l.l), height(l.r))
	return l
}

func rotL(n *node) *node {
	r := n.r
	n.r = r.l
	r.l = n
	n.h = 1 + max(height(n.l), height(n.r))
	r.h = 1 + max(height(r.l), height(r.r))
	return r
}

// Insert records boundary b at position pos. If the boundary already exists
// its position is updated.
func (ix *Index) Insert(b Bound, pos int) {
	ix.root = ix.insert(ix.root, b, pos)
}

func (ix *Index) insert(n *node, b Bound, pos int) *node {
	if n == nil {
		ix.n++
		return &node{b: b, pos: pos, h: 1}
	}
	switch {
	case b.Less(n.b):
		n.l = ix.insert(n.l, b, pos)
	case n.b.Less(b):
		n.r = ix.insert(n.r, b, pos)
	default:
		n.pos = pos
		return n
	}
	return fix(n)
}

// Lookup returns the position of boundary b, if it exists.
func (ix *Index) Lookup(b Bound) (pos int, ok bool) {
	n := ix.root
	for n != nil {
		switch {
		case b.Less(n.b):
			n = n.l
		case n.b.Less(b):
			n = n.r
		default:
			return n.pos, true
		}
	}
	return 0, false
}

// Has reports whether a boundary equal to b exists. It is the read-only
// probe behind the two-phase (probe/execute) query protocol: a range whose
// bounds are both boundaries can be answered without any physical
// reorganization.
func (ix *Index) Has(b Bound) bool {
	_, ok := ix.Lookup(b)
	return ok
}

// Piece is a contiguous position interval [Lo, Hi) delimited by the
// boundaries LoBound and HiBound (absent at the column edges).
type Piece struct {
	Lo, Hi           int
	LoBound, HiBound Bound
	HasLoB, HasHiB   bool
	LoExact          bool // b is itself a boundary: the piece is empty, at its position
}

// PieceFor locates the piece that bound b falls into for a column of length
// n. If a boundary equal to b exists, the returned piece is degenerate:
// Lo == Hi == position of the boundary and LoExact is true.
func (ix *Index) PieceFor(b Bound, n int) Piece {
	p := Piece{Lo: 0, Hi: n}
	cur := ix.root
	for cur != nil {
		switch {
		case b.Less(cur.b):
			p.Hi, p.HiBound, p.HasHiB = cur.pos, cur.b, true
			cur = cur.l
		case cur.b.Less(b):
			p.Lo, p.LoBound, p.HasLoB = cur.pos, cur.b, true
			cur = cur.r
		default:
			return Piece{Lo: cur.pos, Hi: cur.pos, LoBound: b, HiBound: b,
				HasLoB: true, HasHiB: true, LoExact: true}
		}
	}
	return p
}

// Reposition calls f for every boundary in ascending order and stores
// the returned position. It is the bulk counterpart of re-Inserting each
// boundary after a batched ripple update: one tree walk instead of one
// descent per boundary. f must keep positions monotone (the piece
// invariant).
func (ix *Index) Reposition(f func(b Bound, pos int) int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.l)
		n.pos = f(n.b, n.pos)
		walk(n.r)
	}
	walk(ix.root)
}

// Walk calls f for every boundary in ascending order.
func (ix *Index) Walk(f func(b Bound, pos int)) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.l)
		f(n.b, n.pos)
		walk(n.r)
	}
	walk(ix.root)
}

// WalkRange calls f for every boundary strictly between lo and hi, in
// ascending order. It descends only into subtrees that can hold such a
// boundary, so it costs O(log n + k) for the k nodes in the range.
func (ix *Index) WalkRange(lo, hi Bound, f func(b Bound, pos int)) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		above, below := lo.Less(n.b), n.b.Less(hi)
		if above {
			walk(n.l)
		}
		if above && below {
			f(n.b, n.pos)
		}
		if below {
			walk(n.r)
		}
	}
	walk(ix.root)
}

// Clone returns a structural copy of ix that shares no node with it.
func (ix *Index) Clone() *Index { return &Index{root: cloneNode(ix.root), n: ix.n} }

func cloneNode(n *node) *node {
	if n == nil {
		return nil
	}
	c := *n
	c.l, c.r = cloneNode(n.l), cloneNode(n.r)
	return &c
}

// Estimate reports bounds on the number of tuples in a column of length n
// whose value v satisfies lower < v < upper in boundary semantics: lower and
// upper are the boundaries that cracking this predicate would create (see
// Bound). Min and Max bracket the true count; Est interpolates within the
// unresolved edge pieces, assuming uniform value distribution between the
// surrounding boundary values (Section 3.3, self-organizing histograms).
func (ix *Index) Estimate(lower, upper Bound, n int) (min, max, est int) {
	lp := ix.PieceFor(lower, n)
	up := ix.PieceFor(upper, n)
	// Result area starts somewhere in [lp.Lo, lp.Hi] and ends in [up.Lo, up.Hi].
	maxC := up.Hi - lp.Lo
	minC := up.Lo - lp.Hi
	if minC < 0 {
		minC = 0
	}
	if maxC < 0 {
		maxC = 0
	}
	e := float64(minC)
	if !lp.LoExact {
		e += interp(lp, lower) * float64(lp.Hi-lp.Lo)
	}
	if !up.LoExact && (up.Lo != lp.Lo || up.Hi != lp.Hi) {
		e += (1 - interp(up, upper)) * float64(up.Hi-up.Lo)
	} else if !up.LoExact && up.Lo == lp.Lo && up.Hi == lp.Hi && !lp.LoExact {
		// Both bounds fall in the same piece: estimate the fraction between.
		e = frac(lp, lower, upper) * float64(lp.Hi-lp.Lo)
	}
	ei := int(e)
	if ei < minC {
		ei = minC
	}
	if ei > maxC {
		ei = maxC
	}
	return minC, maxC, ei
}

// interp estimates the fraction of piece p that lies at or above bound b,
// by linear interpolation between the piece's delimiting boundary values.
// Returns the fraction of the piece *excluded* when b is the lower bound
// start... concretely: fraction of tuples in p with value >= b.V.
func interp(p Piece, b Bound) float64 {
	if !p.HasLoB || !p.HasHiB || p.HiBound.V == p.LoBound.V {
		return 0.5
	}
	f := float64(p.HiBound.V-b.V) / float64(p.HiBound.V-p.LoBound.V)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

// frac estimates the fraction of piece p with lo <= value < hi.
func frac(p Piece, lo, hi Bound) float64 {
	if !p.HasLoB || !p.HasHiB || p.HiBound.V == p.LoBound.V {
		return 0.5
	}
	f := float64(hi.V-lo.V) / float64(p.HiBound.V-p.LoBound.V)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}
