package crack

import (
	"sort"
	"sync/atomic"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// SnapCol is the multi-version twin of a cracker column — a Pairs of
// (value, key) with its pending updates, the key map of a selection-cracking
// map set: its cracked state is versioned at piece granularity so read-only
// selects traverse a consistent snapshot without any lock.
//
// A version is an immutable partition of the column into pieces (each piece
// an aligned head/tail slice pair) separated by cut bounds — the flattened
// form of the cracker index — plus the pending-update structures of the
// Ripple algorithm. Readers load the current version with one atomic
// pointer read and gather from it; nothing a reader touches is ever
// mutated.
//
// Writers (Select merging/cracking, Insert, Delete) build replacement
// pieces aside — a crack copies only the piece a bound falls into and
// partitions the copy with the same crack-in-two/crack-in-three kernels
// (and Policy pivots) Pairs uses — then publish a new version with one
// atomic pointer swap. A published piece is never written or reused, so a
// reader still traversing an old version needs nothing but its pointer:
// the garbage collector frees the version once no reader holds it. Writers
// must be externally serialized (the owning engine's write path holds a
// mutex); readers need no coordination at all.
//
// Pending updates never block snapshot reads: GatherRO applies pending
// insertions virtually (appending matching keys) and filters pending
// deletions per tuple, so only a missing cut — a real crack — routes a
// query to the writer path.
type SnapCol struct {
	cur atomic.Pointer[colVersion]

	// Policy selects the adaptive pivot policy for cracks, as in Pairs.
	Policy Policy

	published atomic.Uint64 // versions published

	// kern accumulates the kernel partition counters of every piece
	// crack (InTwo, InThree, Visited, Moved, Aux). Writers are
	// serialized by the owner's lock; the counters are atomics so a
	// metrics scrape can read them without coordination.
	kern [5]atomic.Uint64
}

// pendingTuple is one pending insertion: its key and its value.
type pendingTuple struct {
	key Value
	val Value
}

// snapMaxPend bounds the pending-update backlog readers scan per gather:
// beyond it the probe routes one query to the writer path, which merges the
// whole backlog into pieces. Kept small so the virtual application of
// pendings on the lock-free read path stays a fraction of a narrow query's
// base cost even under a sustained insert stream.
const snapMaxPend = 128

// snapPiece is one immutable piece: values (head) and keys (tail),
// position-aligned. Sub-pieces produced by one crack share a backing array
// with disjoint ranges; a piece's slices are never written after the
// version holding it is published.
type snapPiece struct {
	head []Value
	tail []Value
}

// colVersion is one immutable snapshot of the column. cuts[i] separates
// pieces[i] (values on the bound's left) from pieces[i+1] (values at or
// right of it), in ascending bound order; len(cuts) == len(pieces)-1.
type colVersion struct {
	pieces []*snapPiece
	cuts   []crackindex.Bound
	// pendIns is kept sorted by val (ties in arrival order), so the
	// lock-free read path applies pending insertions to a range predicate
	// with a binary search instead of scanning the whole backlog per read.
	pendIns []pendingTuple
	pendDel map[Value]bool
}

// NewSnapCol creates the snapshot cracker column for base column col, with
// the keys in dels (may be nil) queued as pending deletions — the engine
// creates columns on demand after tombstones may already exist.
func NewSnapCol(col *store.Column, pol Policy, dels []int) *SnapCol {
	n := col.Len()
	head := make([]Value, n)
	tail := make([]Value, n)
	copy(head, col.Vals)
	for i := range tail {
		tail[i] = Value(i)
	}
	pendDel := make(map[Value]bool, len(dels))
	for _, k := range dels {
		pendDel[Value(k)] = true
	}
	c := &SnapCol{Policy: pol}
	c.cur.Store(&colVersion{
		pieces:  []*snapPiece{{head: head, tail: tail}},
		pendDel: pendDel,
	})
	return c
}

// SnapColFromPairs converts a (possibly warm) cracker column into a SnapCol,
// preserving its cracked layout, index boundaries, policy and pending
// updates — so wrapping an already-trained engine keeps its adaptive
// investment. src holds (value, key) pairs of base column col; ins are the
// keys of pending insertions, whose values are read from col, and dels the
// keys of pending deletions. Nothing is aliased.
func SnapColFromPairs(src *Pairs, col *store.Column, ins []int, dels map[int]bool) *SnapCol {
	head := append([]Value(nil), src.Head...)
	tail := append([]Value(nil), src.Tail...)
	var cuts []crackindex.Bound
	var poss []int
	src.Idx.Walk(func(b crackindex.Bound, pos int) {
		cuts = append(cuts, b)
		poss = append(poss, pos)
	})
	pieces := make([]*snapPiece, 0, len(cuts)+1)
	prev := 0
	for _, pos := range poss {
		pieces = append(pieces, &snapPiece{head: head[prev:pos:pos], tail: tail[prev:pos:pos]})
		prev = pos
	}
	pieces = append(pieces, &snapPiece{head: head[prev:], tail: tail[prev:]})
	pendIns := make([]pendingTuple, len(ins))
	for i, k := range ins {
		pendIns[i] = pendingTuple{key: Value(k), val: col.Vals[k]}
	}
	sort.SliceStable(pendIns, func(i, j int) bool { return pendIns[i].val < pendIns[j].val })
	pendDel := make(map[Value]bool, len(dels))
	for k := range dels {
		pendDel[Value(k)] = true
	}
	c := &SnapCol{Policy: src.Policy}
	c.cur.Store(&colVersion{pieces: pieces, cuts: cuts, pendIns: pendIns, pendDel: pendDel})
	return c
}

// findCut returns the index of the cut equal to b, if present.
func (v *colVersion) findCut(b crackindex.Bound) (int, bool) {
	i := sort.Search(len(v.cuts), func(k int) bool { return !v.cuts[k].Less(b) })
	if i < len(v.cuts) && v.cuts[i] == b {
		return i, true
	}
	return 0, false
}

// pieceOfVal returns the index of the piece a tuple with value val belongs
// to: the piece left of the first cut whose left side val is on.
func (v *colVersion) pieceOfVal(val Value) int {
	return sort.Search(len(v.cuts), func(i int) bool { return onLeft(val, v.cuts[i]) })
}

// pieceOfBound returns the index of the piece a missing bound b falls into.
func (v *colVersion) pieceOfBound(b crackindex.Bound) int {
	return sort.Search(len(v.cuts), func(i int) bool { return b.Less(v.cuts[i]) })
}

// area returns the qualifying piece interval [i, j) for pred, ok only when
// both bounds exist as cuts (the snapshot twin of Pairs.Area).
func (v *colVersion) area(pred store.Pred) (i, j int, ok bool) {
	li, ok1 := v.findCut(pred.LowerBound())
	ui, ok2 := v.findCut(pred.UpperBound())
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	i, j = li+1, ui+1
	if j < i {
		j = i // empty predicate (hi < lo); normalize
	}
	return i, j, true
}

// GatherRO returns the keys of tuples matching pred, reading one consistent
// version lock-free. ok is false when answering pred needs the writer path:
// a missing cut, or a pending-update backlog large enough that merging it
// beats rescanning it on every read. The keys are a copy, allocated once
// for the area and the backlog. Pending insertions are applied virtually
// and pending deletions filtered, so the answer equals the writer path's.
func (c *SnapCol) GatherRO(pred store.Pred) ([]Value, bool) {
	v := c.cur.Load()
	if len(v.pendIns) > snapMaxPend || len(v.pendDel) > snapMaxPend {
		return nil, false
	}
	i, j, ok := v.area(pred)
	if !ok {
		return nil, false
	}
	n := len(v.pendIns)
	for _, pc := range v.pieces[i:j] {
		n += len(pc.tail)
	}
	dst := make([]Value, 0, n)
	if len(v.pendDel) == 0 {
		for _, pc := range v.pieces[i:j] {
			dst = append(dst, pc.tail...)
		}
	} else {
		for _, pc := range v.pieces[i:j] {
			for _, k := range pc.tail {
				if !v.pendDel[k] {
					dst = append(dst, k)
				}
			}
		}
	}
	if len(v.pendIns) > 0 {
		// pendIns is val-sorted: the matching entries are one contiguous run.
		lo := sort.Search(len(v.pendIns), func(i int) bool {
			if pred.LoIncl {
				return v.pendIns[i].val >= pred.Lo
			}
			return v.pendIns[i].val > pred.Lo
		})
		for _, t := range v.pendIns[lo:] {
			if t.val > pred.Hi || (t.val == pred.Hi && !pred.HiIncl) {
				break
			}
			dst = append(dst, t.key)
		}
	}
	return dst, true
}

// beginEdit starts a writer edit: a version whose piece table and cut list
// are fresh copies safe to splice, while piece contents and pending
// structures stay shared until an edit step copies them.
func (v *colVersion) beginEdit() *colVersion {
	return &colVersion{
		pieces:  append([]*snapPiece(nil), v.pieces...),
		cuts:    append([]crackindex.Bound(nil), v.cuts...),
		pendIns: v.pendIns,
		pendDel: v.pendDel,
	}
}

// Select is operator crackers.select on the writer path: it merges relevant
// pending updates and ensures both predicate bounds exist as cuts —
// building every replacement piece aside and publishing one new version —
// then returns the qualifying keys as a fresh slice. Must run under the owner's exclusive
// lock (one writer at a time); readers are never blocked and never see a
// partial edit.
func (c *SnapCol) Select(pred store.Pred) []Value {
	old := c.cur.Load()
	w := old.beginEdit()
	changed := c.mergePend(w, pred, len(old.pendIns) > snapMaxPend)
	changed = c.ensureCuts(w, pred) || changed
	i, j, ok := w.area(pred)
	if !ok {
		panic("crack: SnapCol area missing after crack")
	}
	lo, hi := i, j
	if len(w.pendDel) > snapMaxPend {
		lo, hi = 0, len(w.pieces)
	}
	changed = c.applyDel(w, lo, hi) || changed
	if changed {
		c.publish(w)
	} else {
		w = old // nothing moved: answer from the published version
	}
	n := 0
	for _, pc := range w.pieces[i:j] {
		n += len(pc.tail)
	}
	out := make([]Value, 0, n)
	for _, pc := range w.pieces[i:j] {
		out = append(out, pc.tail...)
	}
	return out
}

// Insert queues (key, val) as a pending insertion in a new version,
// spliced in at its val-sorted position; when the backlog exceeds
// snapMaxPend the whole backlog is merged into pieces. Writer path: caller
// holds the owner's exclusive lock.
func (c *SnapCol) Insert(key int, val Value) {
	old := c.cur.Load()
	w := old.beginEdit()
	at := sort.Search(len(old.pendIns), func(i int) bool { return old.pendIns[i].val > val })
	ni := make([]pendingTuple, 0, len(old.pendIns)+1)
	ni = append(ni, old.pendIns[:at]...)
	ni = append(ni, pendingTuple{key: Value(key), val: val})
	ni = append(ni, old.pendIns[at:]...)
	w.pendIns = ni
	if len(w.pendIns) > snapMaxPend {
		c.mergePend(w, store.Pred{}, true)
	}
	c.publish(w)
}

// Delete queues a pending deletion (or cancels a pending insertion) in a
// new version. Writer path: caller holds the owner's exclusive lock.
func (c *SnapCol) Delete(key int) {
	old := c.cur.Load()
	k := Value(key)
	for i, t := range old.pendIns {
		if t.key == k {
			// Still pending: cancel the insertion instead.
			w := old.beginEdit()
			ni := make([]pendingTuple, 0, len(old.pendIns)-1)
			ni = append(ni, old.pendIns[:i]...)
			ni = append(ni, old.pendIns[i+1:]...)
			w.pendIns = ni
			c.publish(w)
			return
		}
	}
	if old.pendDel[k] {
		return
	}
	w := old.beginEdit()
	nd := make(map[Value]bool, len(old.pendDel)+1)
	for dk := range old.pendDel {
		nd[dk] = true
	}
	nd[k] = true
	w.pendDel = nd
	if len(nd) > snapMaxPend {
		c.applyDel(w, 0, len(w.pieces))
	}
	c.publish(w)
}

// mergePend merges pending insertions matching pred (or all of them) into
// copies of their target pieces, val order preserved per piece.
func (c *SnapCol) mergePend(w *colVersion, pred store.Pred, all bool) bool {
	if len(w.pendIns) == 0 {
		return false
	}
	var take, rest []pendingTuple
	for _, t := range w.pendIns {
		if all || pred.Matches(t.val) {
			take = append(take, t)
		} else {
			rest = append(rest, t)
		}
	}
	if len(take) == 0 {
		return false
	}
	w.pendIns = rest
	byPiece := make(map[int][]pendingTuple)
	for _, t := range take {
		pi := w.pieceOfVal(t.val)
		byPiece[pi] = append(byPiece[pi], t)
	}
	for pi, ts := range byPiece {
		pc := w.pieces[pi]
		n := len(pc.head)
		head := make([]Value, n, n+len(ts))
		tail := make([]Value, n, n+len(ts))
		copy(head, pc.head)
		copy(tail, pc.tail)
		for _, t := range ts {
			head = append(head, t.val)
			tail = append(tail, t.key)
		}
		w.pieces[pi] = &snapPiece{head: head, tail: tail}
	}
	return true
}

// ensureCuts makes both bounds of pred exist as cuts, cracking the pieces
// they fall into. When both bounds miss inside the same piece, the piece is
// partitioned against both in one crack-in-three pass, exactly like
// Pairs.CrackRange.
func (c *SnapCol) ensureCuts(w *colVersion, pred store.Pred) bool {
	lb, ub := pred.LowerBound(), pred.UpperBound()
	_, okL := w.findCut(lb)
	_, okU := w.findCut(ub)
	if okL && okU {
		return false
	}
	if !okL && !okU && lb.Less(ub) && w.pieceOfBound(lb) == w.pieceOfBound(ub) {
		c.crackPiece(w, w.pieceOfBound(lb), func(tmp *Pairs) { tmp.CrackRange(pred) })
		return true
	}
	if !okL {
		c.crackPiece(w, w.pieceOfBound(lb), func(tmp *Pairs) { tmp.CrackBound(lb) })
	}
	if _, ok := w.findCut(ub); !ok {
		c.crackPiece(w, w.pieceOfBound(ub), func(tmp *Pairs) { tmp.CrackBound(ub) })
	}
	return true
}

// crackPiece copies piece pi, partitions the copy with the shared Pairs
// kernels (crack applies c.Policy, so auxiliary pivots land here too), and
// splices the resulting sub-pieces and cuts into w. The sub-pieces share
// the copy's backing arrays over disjoint ranges.
func (c *SnapCol) crackPiece(w *colVersion, pi int, f func(tmp *Pairs)) {
	pc := w.pieces[pi]
	head := append([]Value(nil), pc.head...)
	tail := append([]Value(nil), pc.tail...)
	tmp := WrapPairs(head, tail)
	tmp.Policy = c.Policy
	f(tmp)
	c.kern[0].Add(uint64(tmp.Stats.InTwo))
	c.kern[1].Add(uint64(tmp.Stats.InThree))
	c.kern[2].Add(uint64(tmp.Stats.Visited))
	c.kern[3].Add(uint64(tmp.Stats.Moved))
	c.kern[4].Add(uint64(tmp.Stats.Aux))
	type cutpos struct {
		b   crackindex.Bound
		pos int
	}
	var cps []cutpos
	tmp.Idx.Walk(func(b crackindex.Bound, pos int) {
		// A policy pivot can coincide with the piece's delimiting cut;
		// re-adding it would duplicate the cut around an empty sub-piece.
		if pi > 0 && !w.cuts[pi-1].Less(b) {
			return
		}
		if pi < len(w.cuts) && !b.Less(w.cuts[pi]) {
			return
		}
		cps = append(cps, cutpos{b, pos})
	})
	subs := make([]*snapPiece, 0, len(cps)+1)
	bs := make([]crackindex.Bound, 0, len(cps))
	prev := 0
	for _, cp := range cps {
		subs = append(subs, &snapPiece{head: head[prev:cp.pos:cp.pos], tail: tail[prev:cp.pos:cp.pos]})
		bs = append(bs, cp.b)
		prev = cp.pos
	}
	subs = append(subs, &snapPiece{head: head[prev:], tail: tail[prev:]})
	np := make([]*snapPiece, 0, len(w.pieces)+len(subs)-1)
	np = append(np, w.pieces[:pi]...)
	np = append(np, subs...)
	np = append(np, w.pieces[pi+1:]...)
	w.pieces = np
	nc := make([]crackindex.Bound, 0, len(w.cuts)+len(bs))
	nc = append(nc, w.cuts[:pi]...)
	nc = append(nc, bs...)
	nc = append(nc, w.cuts[pi:]...)
	w.cuts = nc
}

// applyDel removes tuples with pending deletions from pieces [lo, hi),
// copying only affected pieces and consuming the matched entries from a
// copy of the pending-deletion set (which also guards duplicate keys).
func (c *SnapCol) applyDel(w *colVersion, lo, hi int) bool {
	del := w.pendDel
	if len(del) == 0 {
		return false
	}
	var nd map[Value]bool
	for pi := lo; pi < hi; pi++ {
		pc := w.pieces[pi]
		cnt := 0
		for _, k := range pc.tail {
			if del[k] {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		if nd == nil {
			nd = make(map[Value]bool, len(w.pendDel))
			for k := range w.pendDel {
				nd[k] = true
			}
			del = nd
		}
		n := len(pc.head)
		head := make([]Value, 0, n-cnt)
		tail := make([]Value, 0, n-cnt)
		for x, k := range pc.tail {
			if nd[k] {
				delete(nd, k)
				continue
			}
			head = append(head, pc.head[x])
			tail = append(tail, k)
		}
		w.pieces[pi] = &snapPiece{head: head, tail: tail}
	}
	if nd == nil {
		return false
	}
	w.pendDel = nd
	return true
}

// publish swaps in the new version. The old one is left to its readers;
// nothing of it is written again.
func (c *SnapCol) publish(w *colVersion) {
	c.cur.Store(w)
	c.published.Add(1)
}

// Len returns the number of tuples materialized in pieces (excluding
// pending insertions).
func (c *SnapCol) Len() int {
	v := c.cur.Load()
	n := 0
	for _, pc := range v.pieces {
		n += len(pc.head)
	}
	return n
}

// Pieces returns the number of pieces in the current version.
func (c *SnapCol) Pieces() int { return len(c.cur.Load().pieces) }

// PendingInsertions returns the number of insertions not yet merged.
func (c *SnapCol) PendingInsertions() int { return len(c.cur.Load().pendIns) }

// PendingDeletions returns the number of deletions not yet merged.
func (c *SnapCol) PendingDeletions() int { return len(c.cur.Load().pendDel) }

// KernelStats returns the kernel partition counters accumulated across
// every piece crack since the column was created (the conversion from a
// plain cracker column starts from zero). Safe to call concurrently.
func (c *SnapCol) KernelStats() KernelStats {
	return KernelStats{
		InTwo:   int(c.kern[0].Load()),
		InThree: int(c.kern[1].Load()),
		Visited: int(c.kern[2].Load()),
		Moved:   int(c.kern[3].Load()),
		Aux:     int(c.kern[4].Load()),
	}
}

// Published returns the number of versions published. Safe to call
// concurrently.
func (c *SnapCol) Published() uint64 { return c.published.Load() }

// CheckVersion verifies the current version's piece invariant (every value
// sits between its piece's delimiting cuts) and cut ordering; the snapshot
// twin of Pairs.CheckPieces, used by tests.
func (c *SnapCol) CheckVersion() bool {
	v := c.cur.Load()
	if len(v.cuts) != len(v.pieces)-1 {
		return false
	}
	for i := 1; i < len(v.cuts); i++ {
		if !v.cuts[i-1].Less(v.cuts[i]) {
			return false
		}
	}
	for pi, pc := range v.pieces {
		for _, val := range pc.head {
			if pi > 0 && onLeft(val, v.cuts[pi-1]) {
				return false
			}
			if pi < len(v.cuts) && !onLeft(val, v.cuts[pi]) {
				return false
			}
		}
	}
	for i := 1; i < len(v.pendIns); i++ {
		if v.pendIns[i].val < v.pendIns[i-1].val {
			return false
		}
	}
	return true
}
