package store

import "math/bits"

// FreeList is a size-classed free list of value columns, for the places that
// would otherwise allocate, zero and fault in a fresh column only to copy
// over all of it: a recycled column costs the copy. Who may put a column —
// nothing else may refer to it any more — is the rule of the list's one
// owner, sideways.Store (see its release). Columns leave the list without
// being cleared; whoever draws one overwrites all of it.
//
// Capacities are rounded to size classes, four per doubling, so a column
// serves any request of its class and is at most a quarter larger than what
// it serves. A FreeList is not safe for concurrent use.
type FreeList struct {
	free map[int][][]Value // by capacity, always a size class
	idle int               // values held

	// Columns handed out: taken from the list, or allocated because it held
	// none of the size class.
	Recycled, Allocated uint64
}

// minClass is the smallest pooled capacity; smaller columns cost nothing to
// allocate.
const minClass = 8

// ClassUp returns the smallest size class >= n.
func ClassUp(n int) int {
	if n <= minClass {
		return minClass
	}
	g := 1 << (bits.Len(uint(n-1)) - 3)
	return (n + g - 1) &^ (g - 1)
}

// ClassDown returns the largest size class <= n, 0 when there is none.
func ClassDown(n int) int {
	if n < minClass {
		return 0
	}
	g := 1 << (bits.Len(uint(n)) - 3)
	return n &^ (g - 1)
}

// Idle returns the number of values the list holds.
func (b *FreeList) Idle() int { return b.idle }

// Take returns a column of length n with unspecified contents off the list,
// nil when it holds none of the size class.
func (b *FreeList) Take(n int) []Value {
	c := ClassUp(n)
	l := b.free[c]
	if len(l) == 0 {
		return nil
	}
	buf := l[len(l)-1]
	b.free[c] = l[:len(l)-1]
	b.idle -= c
	b.Recycled++
	return buf[:n]
}

// Get returns a column of length n with unspecified contents, allocating one
// of n's size class when the list holds none.
func (b *FreeList) Get(n int) []Value {
	if buf := b.Take(n); buf != nil {
		return buf
	}
	b.Allocated++
	return make([]Value, n, ClassUp(n))
}

// Put hands a column nothing refers to any more to the list, which keeps
// within limit values by giving up columns of the class that holds most: the
// sizes an owner returns drift away from the sizes it draws, and the glut
// must not crowd out the classes in demand.
func (b *FreeList) Put(buf []Value, limit int) {
	c := ClassDown(cap(buf))
	if c == 0 || c > limit {
		return
	}
	if b.free == nil {
		b.free = make(map[int][][]Value)
	}
	for b.idle+c > limit {
		glut, held := 0, 0
		for class, l := range b.free {
			if v := class * len(l); v > held || v == held && class > glut {
				glut, held = class, v
			}
		}
		l := b.free[glut]
		l[len(l)-1] = nil
		b.free[glut] = l[:len(l)-1]
		b.idle -= glut
	}
	b.free[c] = append(b.free[c], buf[:0:c])
	b.idle += c
}
