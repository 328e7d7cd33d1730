// Fixture for the frozenversion checker: writes through values loaded from
// atomic.Pointer, or through pointers read out of them, are flagged; fresh
// copies stay writable.
package frozenversion

import "sync/atomic"

type version struct {
	vals []int64
	n    int
}

type col struct {
	cur atomic.Pointer[version]
}

func okRead(c *col) int64 {
	v := c.cur.Load()
	if len(v.vals) == 0 {
		return int64(v.n)
	}
	return v.vals[0]
}

// okReplace is the legal write path: copy, mutate the copy, publish.
func okReplace(c *col) {
	v := c.cur.Load()
	next := &version{vals: append([]int64(nil), v.vals...), n: v.n}
	next.n++
	c.cur.Store(next)
}

// okStructCopy: a value copy of the struct is private memory.
func okStructCopy(c *col) int {
	v := c.cur.Load()
	tmp := *v
	tmp.n = 7
	return tmp.n
}

func badFieldWrite(c *col) {
	v := c.cur.Load()
	v.n = 1 // want "published versions are immutable"
}

func badDirectWrite(c *col) {
	c.cur.Load().n = 2 // want "published versions are immutable"
}

func badSliceElem(c *col) {
	v := c.cur.Load()
	v.vals[0] = 9 // want "published versions are immutable"
}

func badAliasedSlice(c *col) {
	vals := c.cur.Load().vals
	vals[1] = 3 // want "published versions are immutable"
}

func badCopyInto(c *col, src []int64) {
	v := c.cur.Load()
	copy(v.vals, src) // want "published versions are immutable"
}

func badIncDec(c *col) {
	c.cur.Load().n++ // want "published versions are immutable"
}

type item struct{ n int }

type reg struct {
	m atomic.Pointer[map[string]*item]
}

// okReplaceEntry is the legal write path for a published map of
// versions: copy the entry read out of it, mutate the copy, publish a new
// map holding it.
func okReplaceEntry(r *reg) {
	m := *r.m.Load()
	next := &item{n: m["x"].n + 1}
	r.m.Store(&map[string]*item{"x": next})
}

// A pointer read out of a published map is published too.
func badPointee(r *reg) {
	old := (*r.m.Load())["x"]
	old.n++ // want "published versions are immutable"
}

func badCommaOkPointee(r *reg) {
	old, ok := (*r.m.Load())["x"]
	if ok {
		old.n = 5 // want "published versions are immutable"
	}
}

func badRangedPointee(r *reg) {
	for _, it := range *r.m.Load() {
		it.n = 5 // want "published versions are immutable"
	}
}

func badMapInsert(r *reg) {
	m := *r.m.Load()
	m["x"] = nil // want "published versions are immutable"
}
