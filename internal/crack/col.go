package crack

import (
	"crackstore/internal/store"
)

// Col is a cracker column C_A (Section 2.2): a copy of base column A stored
// as (value, key) pairs that is physically reorganized by every selection,
// plus the pending-update structures of the Ripple algorithm (SIGMOD 2007).
type Col struct {
	P *Pairs // head = values, tail = keys (as Value)

	pendIns []pendingTuple
	pendDel map[Value]bool // keys with a pending deletion
}

type pendingTuple struct {
	key Value
	val Value
}

// NewCol creates the cracker column for base column col: values are copied
// in insertion order and keys are the dense positions 0..n-1.
func NewCol(col *store.Column) *Col {
	n := col.Len()
	head := make([]Value, n)
	tail := make([]Value, n)
	copy(head, col.Vals)
	for i := range tail {
		tail[i] = Value(i)
	}
	return &Col{P: WrapPairs(head, tail), pendDel: make(map[Value]bool)}
}

// NewColWithPolicy is NewCol with an adaptive cracking policy for the
// column's pairs (see Policy).
func NewColWithPolicy(col *store.Column, pol Policy) *Col {
	c := NewCol(col)
	c.P.Policy = pol
	return c
}

// Len returns the number of tuples currently materialized in the column
// (excluding pending insertions).
func (c *Col) Len() int { return c.P.Len() }

// PendingInsertions returns the number of insertions not yet merged.
func (c *Col) PendingInsertions() int { return len(c.pendIns) }

// PendingDeletions returns the number of deletions not yet merged.
func (c *Col) PendingDeletions() int { return len(c.pendDel) }

// Insert queues the tuple (key, val) as a pending insertion. It is merged
// into the cracked column only when a query touches its value range. Keys
// must be fresh: re-using the key of a live or pending-deleted tuple is not
// supported (engines model an update as delete(old key) + insert(new key),
// matching the paper's Section 3.5).
func (c *Col) Insert(key int, val Value) {
	c.pendIns = append(c.pendIns, pendingTuple{key: Value(key), val: val})
}

// Delete queues a pending deletion of the tuple with the given key.
func (c *Col) Delete(key int) {
	for i, t := range c.pendIns {
		if t.key == Value(key) {
			// Still pending: cancel the insertion instead.
			c.pendIns = append(c.pendIns[:i], c.pendIns[i+1:]...)
			return
		}
	}
	c.pendDel[Value(key)] = true
}

// mergePendingInserts ripple-inserts every pending tuple whose value matches
// pred, in arrival order (deterministic), batched into a single pass.
func (c *Col) mergePendingInserts(pred store.Pred) {
	if len(c.pendIns) == 0 {
		return
	}
	var vals, keys []Value
	rest := c.pendIns[:0]
	for _, t := range c.pendIns {
		if pred.Matches(t.val) {
			vals = append(vals, t.val)
			keys = append(keys, t.key)
		} else {
			rest = append(rest, t)
		}
	}
	c.pendIns = rest
	c.P.RippleInsertBatch(vals, keys)
}

// applyPendingDeletes removes tuples within [lo, hi) whose key has a pending
// deletion and returns the new hi.
func (c *Col) applyPendingDeletes(lo, hi int) int {
	if len(c.pendDel) == 0 {
		return hi
	}
	// dead is ascending by construction; deleting the key as it is claimed
	// both consumes the pending deletion and guards against a duplicate key
	// in the scanned area.
	var dead []int
	for i := lo; i < hi; i++ {
		if k := c.P.Tail[i]; c.pendDel[k] {
			delete(c.pendDel, k)
			dead = append(dead, i)
		}
	}
	if len(dead) == 0 {
		return hi
	}
	c.P.RippleDeleteBatch(dead)
	return hi - len(dead)
}

// SelectRO is the reorganization-free execute path of the two-phase
// protocol: when the qualifying area already exists and no pending update
// is relevant it returns the keys of qualifying tuples without touching
// the column. ok is false when Select would reorganize — crack a piece,
// merge a pending insertion, or apply a pending deletion inside the area;
// callers then fall back to Select under exclusive access. Like Select,
// the returned slice is a view into the column, valid until the next
// crack. Safe to call concurrently with other readers.
func (c *Col) SelectRO(pred store.Pred) (keys []Value, ok bool) {
	for _, t := range c.pendIns {
		if pred.Matches(t.val) {
			return nil, false
		}
	}
	lo, hi, ok := c.P.Area(pred)
	if !ok {
		return nil, false
	}
	if len(c.pendDel) > 0 {
		for i := lo; i < hi; i++ {
			if c.pendDel[c.P.Tail[i]] {
				return nil, false
			}
		}
	}
	return c.P.Tail[lo:hi], true
}

// Select is operator crackers.select(A,v1,v2): it merges relevant pending
// updates, physically reorganizes the column to cluster qualifying tuples
// into a contiguous area, and returns the keys of qualifying tuples. The
// returned slice is a view into the column (valid until the next crack).
// Keys are NOT in insertion order — cracking destroys tuple order, which is
// exactly the property that makes subsequent tuple reconstruction expensive
// for selection cracking (Section 2.2).
func (c *Col) Select(pred store.Pred) []Value {
	c.mergePendingInserts(pred)
	lo, hi := c.P.CrackRange(pred)
	hi = c.applyPendingDeletes(lo, hi)
	return c.P.Tail[lo:hi]
}

// RelSelect is operator crackers.rel_select (Section 2.2): for conjunctive
// queries, subsequent selections filter a prior intermediate result instead
// of cracking. Given keys from a previous selection and the base column
// values of the next attribute, it performs select and reconstruct in one go
// using positional key lookups (random access, since keys are unordered).
func RelSelect(keys, base []Value, pred store.Pred) []Value {
	out := keys[:0:0]
	for _, k := range keys {
		if pred.Matches(base[int(k)]) {
			out = append(out, k)
		}
	}
	return out
}
