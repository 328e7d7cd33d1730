// Package partial implements partial sideways cracking (Section 4 of the
// paper): cracker maps materialized lazily as collections of independent
// chunks, enabling self-organizing storage management.
//
// Each map set S_A owns a chunk map H_A — a cracker column over (A, key) —
// whose value range is divided into areas. An area is fetched when the
// first partial map materializes a chunk from it; fetched areas of H_A are
// frozen (never cracked or physically updated again) so that every chunk
// created from them starts from the same initial layout. Each fetched area
// has its own cracker tape; chunks carry a cursor into their area's tape and
// are aligned by replay, exactly like full maps but at chunk granularity:
// the chunks of one area at one cursor replay once, each crack decided on
// one head (sideways.Tape.ReplayJoint), while a head-dropped chunk replays
// alone and lazily.
//
// The storage manager evicts chunks when a budget is exceeded; dropping the
// last chunk of an area un-fetches it (its tape's pending effects are pushed
// back to the set's pending updates, so nothing is lost). Heavily cracked or
// idle chunks can drop their head column; the head is recovered
// deterministically from the frozen H_A area by replaying the tape prefix,
// or copied from a same-cursor sibling chunk (Section 4.1, "Dropping the
// Head Column").
//
// Under a budget smaller than the workload's working set, creating chunks
// is steady-state work, so the manager is built to pay for a chunk tuple
// once. Eviction is least-frequently-used with dynamic aging
// (sideways.Usage): a chunk's priority is its access count plus the store's
// age at its last use, the age being the priority of the last victim. The
// paper's plain count thrashes on its own Fig 9 cycle: the victim is the
// chunk created one query ago, with its count of one, while the well-used
// chunks of a batch that has ended are kept for good. Victims come off a
// heap with lazily refreshed keys, since read-only queries raise priorities
// atomically and cannot reorder anything. The columns of evicted chunks and
// dropped heads go to a store-owned free list that new chunks and recovered
// heads draw from (see release for the ownership rule); it holds at most
// Budget/8 values, a sixteenth of the bytes the budget allows live chunks.
package partial

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"crackstore/internal/bitvec"
	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// AttrPred and Result are shared with the full-map implementation.
type (
	AttrPred = sideways.AttrPred
	Result   = sideways.Result
)

// chunk is one materialized piece of a partial map: a (head, tail) pairs
// table covering its area's value range, plus a cursor into the area tape.
type chunk struct {
	p              *crack.Pairs
	cursor         int
	sideways.Usage // eviction priority; touched atomically by read-only queries
	headDropped    bool
	lastCrack      int // store query counter at the last replayed crack entry
	cost           int // tuples() as last added to Store.storage (see account)

	// Where the chunk lives: what eviction needs to remove it, and the
	// (set attribute, area id, tail attribute) order of equal priorities.
	set  *Set
	w    *area
	attr string
}

func (c *chunk) Len() int { return len(c.p.Tail) }

// tuples returns the chunk's storage cost in tuples: a full chunk of n
// pairs costs n; a head-dropped chunk costs half (rounded up).
func (c *chunk) tuples() int {
	if c.headDropped {
		return (c.Len() + 1) / 2
	}
	return c.Len()
}

// area is a fetched value range of a chunk map: a frozen span [lo, hi) of
// H_A, its own cracker tape, and the chunks materialized from it (keyed by
// tail attribute; "" is the key chunk used for deletions).
type area struct {
	id       int
	lo, hi   int // span in H_A, frozen at fetch time
	loB, hiB crackindex.Bound
	tape     sideways.Tape
	// lastUpdate is one past the tape index of the most recent insert or
	// delete entry. Partial alignment may lag on crack entries but must
	// never leave an update entry unapplied in a chunk it returns data
	// from.
	lastUpdate int
	chunks     map[string]*chunk
}

// covers reports whether bound b falls in [loB, hiB).
func (w *area) covers(b crackindex.Bound) bool {
	return !b.Less(w.loB) && b.Less(w.hiB)
}

// Set is a partial map set S_A: the chunk map H_A plus fetched areas and
// pending updates.
type Set struct {
	st    *Store
	attr  string
	ha    *crack.Pairs // chunk map H_A: head = A values, tail = keys
	areas []*area      // fetched areas, ascending by value range

	pend   *sideways.Pending // updates not yet in an area tape
	nextID int
}

// Attr returns the head attribute name.
func (set *Set) Attr() string { return set.attr }

// NumAreas returns the number of fetched areas (for tests/experiments).
func (set *Set) NumAreas() int { return len(set.areas) }

// Store owns a base relation and its partial map sets.
type Store struct {
	sideways.Base
	sets map[string]*Set

	// Budget is the storage threshold T in tuples over all chunks (the
	// chunk map is excluded, like the cracker columns of selection
	// cracking); 0 means unlimited.
	Budget int
	// CachedPieceTuples enables head dropping for chunks whose pieces all
	// fit in a CPU-cache-sized window of this many tuples; 0 disables.
	CachedPieceTuples int
	// HeadDropIdleQueries drops the head of chunks not cracked for this
	// many queries; 0 disables.
	HeadDropIdleQueries int

	// ForceFullAlignment is an ablation switch: when set, covered chunks
	// align to the tape end like boundary chunks, disabling the partial
	// alignment optimization of Section 4.1.
	ForceFullAlignment bool

	// Policy is the adaptive cracking policy (crack.Policy) applied to
	// chunk maps and their chunks. It is frozen per set at set creation —
	// sibling chunks replay shared area tapes and must make identical
	// pivot decisions — so set Policy before the first query touches an
	// attribute. Lazy head-drop replay stays valid under every policy:
	// a crack whose bounds are existing boundaries is a physical no-op.
	Policy crack.Policy

	queries     int
	storage     int            // running sum of chunk.tuples() over all live chunks
	pinnedAreas map[*area]bool // areas resolved by the in-flight query
	victims     victimHeap     // every live chunk, lowest eviction priority first
	bufs        store.FreeList // columns of evicted chunks and dropped heads
	life        ChunkStats
	// evictedAccesses sums the access counts of evicted chunks: a mean near
	// one says the manager evicts what it created a query ago.
	evictedAccesses int64
}

// ChunkStats counts the chunk lifecycle since the store was created.
type ChunkStats struct {
	Created       uint64 // chunks materialized
	TuplesCreated uint64 // tuples fetched and gathered into them
	Evicted       uint64 // chunks dropped for the budget
	// Columns handed to new chunks and recovered heads: taken from the free
	// list, or allocated because it held none of the size class.
	BuffersRecycled, BuffersAllocated uint64
}

// ChunkStats returns the lifecycle counters. Call it under the same
// synchronization as queries.
func (s *Store) ChunkStats() ChunkStats {
	st := s.life
	st.BuffersRecycled, st.BuffersAllocated = s.bufs.Recycled, s.bufs.Allocated
	return st
}

// victimHeap orders the store's live chunks by eviction priority. Keys are
// lazy: a use raises a chunk's priority without touching the heap (read-only
// queries could not), so a key may be lower than the truth, never higher,
// and ensureBudget refreshes whatever surfaces before trusting it.
type victimHeap []victimKey

type victimKey struct {
	prio int64
	c    *chunk
}

func (h victimHeap) Len() int      { return len(h) }
func (h victimHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h victimHeap) Less(i, j int) bool {
	a, b := h[i].c, h[j].c
	switch {
	case h[i].prio != h[j].prio:
		return h[i].prio < h[j].prio
	case a.set.attr != b.set.attr:
		return a.set.attr < b.set.attr
	case a.w.id != b.w.id:
		return a.w.id < b.w.id
	}
	return a.attr < b.attr
}
func (h *victimHeap) Push(x any) { *h = append(*h, x.(victimKey)) }
func (h *victimHeap) Pop() any {
	old := *h
	k := old[len(old)-1]
	old[len(old)-1] = victimKey{}
	*h = old[:len(old)-1]
	return k
}

// NewStore wraps rel (not copied) for partial sideways cracking.
func NewStore(rel *store.Relation) *Store {
	return &Store{Base: sideways.NewBase(rel), sets: make(map[string]*Set)}
}

// Kernel aggregates the kernel partition counters over every chunk map and
// every chunk the store has had, evicted ones included, and the
// cracker-index sizes over the live ones: the observability bridge. Call it
// under the same synchronization as queries (the stats are plain ints on the
// Pairs).
func (s *Store) Kernel() (ks crack.KernelStats, pieces, cols int) {
	ks = s.RetiredKernel()
	for _, set := range s.sets {
		ks.Add(set.ha.Stats)
		pieces += set.ha.Idx.Pieces()
		cols++
		for _, a := range set.areas {
			for _, ch := range a.chunks {
				ks.Add(ch.p.Stats)
				pieces += ch.p.Idx.Pieces()
				cols++
			}
		}
	}
	return ks, pieces, cols
}

// StorageTuples returns the total chunk storage in tuples (head-dropped
// chunks count half). The chunk maps are excluded; see ChunkMapTuples.
func (s *Store) StorageTuples() int { return s.storage }

// account brings the running storage total up to date with chunk c. Every
// step that changes what a live chunk costs — creation, ripple updates,
// dropping or recovering its head — ends with it, so the budget check never
// has to re-walk the chunks.
func (s *Store) account(c *chunk) {
	s.storage += c.tuples() - c.cost
	c.cost = c.tuples()
}

// release hands a column nothing refers to any more to bufs, the store's free
// list of chunk columns. Under a budget chunk creation is steady-state work,
// and a fresh column costs its zeroing plus a page fault per 4 KB on top of
// the copy that fills it; a recycled one costs the copy.
//
// Ownership: a column enters the list when its chunk is evicted or its head
// is dropped — on the write path, under exclusive access — and from then on
// nothing else refers to it. A Window holds tails of chunks the in-flight
// query pinned, eviction skips pinned chunks, a head drop releases the head
// only, read-only queries never run beside the write path, and a Result is
// always a copy. The list holds at most Budget/8 values — a sixteenth of the
// bytes the budget allows live chunks — and nothing without a budget.
func (s *Store) release(buf []Value) { s.bufs.Put(buf, s.Budget/8) }

// dropHead drops chunk c's head column, keeping only the tail.
func (s *Store) dropHead(c *chunk) {
	s.release(c.p.Head)
	c.p.Head = nil
	c.headDropped = true
	s.account(c)
}

// ChunkMapTuples returns the total size of all chunk maps H_A in tuples.
func (s *Store) ChunkMapTuples() int {
	total := 0
	for _, set := range s.sets {
		total += set.ha.Len()
	}
	return total
}

// Set returns the partial map set for attr, creating H_A on demand from the
// current base state (inserts included; live tombstones become pending).
func (s *Store) Set(attr string) *Set {
	if set, ok := s.sets[attr]; ok {
		return set
	}
	col := s.Relation().MustColumn(attr)
	n := col.Len()
	head := slices.Clone(col.Vals[:n]) // no zeroing pass before the copy
	tail := make([]Value, n)
	for i := range tail {
		tail[i] = Value(i)
	}
	set := &Set{
		st:   s,
		attr: attr,
		ha:   crack.WrapPairs(head, tail),
		pend: sideways.NewPending(&s.Base, attr),
	}
	// ha.Policy doubles as the set's frozen policy snapshot: chunks and
	// head-recovery replays copy it, so a later Store.Policy change cannot
	// misalign an existing set.
	set.ha.Policy = s.Policy
	s.sets[attr] = set
	return set
}

// SetIfExists returns the set for attr if materialized.
func (s *Store) SetIfExists(attr string) *Set { return s.sets[attr] }

var (
	minBound = crackindex.Bound{V: math.MinInt64, Incl: true}  // before all values
	maxBound = crackindex.Bound{V: math.MaxInt64, Incl: false} // after all values
)

// resolve returns, in value order, the fetched areas that jointly cover
// pred's value range. With fetch set, gap areas are fetched from H_A as
// needed (Section 4.1, "Creating Chunks"); newly fetched areas cover exactly
// the needed range, so only pre-existing boundary areas may require chunk
// cracking. Without it resolve is read-only and reports ok == false when a
// gap would have to be fetched.
func (set *Set) resolve(pred store.Pred, fetch bool) (out []*area, ok bool) {
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()
	cur := lowerB
	i := 0
	for cur.Less(upperB) {
		for i < len(set.areas) && !cur.Less(set.areas[i].hiB) {
			i++
		}
		if i < len(set.areas) && !cur.Less(set.areas[i].loB) {
			out = append(out, set.areas[i])
			cur = set.areas[i].hiB
			i++
			continue
		}
		if !fetch {
			return nil, false
		}
		gapEnd := upperB
		if i < len(set.areas) && set.areas[i].loB.Less(upperB) {
			gapEnd = set.areas[i].loB
		}
		w := set.fetch(cur, gapEnd)
		out = append(out, w)
		// fetch inserted w into set.areas just before index i; keep i
		// pointing past it.
		i++
		cur = gapEnd
	}
	return out, true
}

// fetch cracks H_A at the given bounds (in the unfetched gap they fall in),
// marks the resulting span as a fetched area, and returns it.
func (set *Set) fetch(lo, hi crackindex.Bound) *area {
	p1 := crackHABound(set.ha, lo)
	p2 := crackHABound(set.ha, hi)
	if p2 < p1 {
		p2 = p1
	}
	w := &area{
		id: set.nextID, lo: p1, hi: p2, loB: lo, hiB: hi,
		chunks: make(map[string]*chunk),
	}
	set.nextID++
	at := sort.Search(len(set.areas), func(k int) bool { return lo.Less(set.areas[k].loB) })
	set.areas = append(set.areas, nil)
	copy(set.areas[at+1:], set.areas[at:])
	set.areas[at] = w
	return w
}

// crackHABound cracks H_A at bound b unless b is a sentinel edge.
func crackHABound(ha *crack.Pairs, b crackindex.Bound) int {
	if b == minBound {
		return 0
	}
	if b == maxBound {
		return ha.Len()
	}
	return ha.CrackBound(b)
}

// unfetch removes area w: its tape's updates are pushed back to the set's
// pending structures so they reapply when the range is fetched again.
func (set *Set) unfetch(w *area) {
	set.pend.Restore(w.tape)
	for i, a := range set.areas {
		if a == w {
			set.areas = append(set.areas[:i], set.areas[i+1:]...)
			break
		}
	}
}

// ensureChunk materializes (or returns) the chunk of area w for tailAttr
// ("" = key chunk). New chunks fetch head values from the frozen H_A span
// and tail values from the base column via the keys stored in H_A
// (Section 4.1: "we use the keys stored in w to get the B values from B's
// base column").
func (set *Set) ensureChunk(w *area, tailAttr string, pinned map[*chunk]bool) *chunk {
	if c, ok := w.chunks[tailAttr]; ok {
		return c
	}
	st := set.st
	size := w.hi - w.lo
	st.ensureBudget(size, pinned)
	head := st.bufs.Get(size)
	copy(head, set.ha.Head[w.lo:w.hi])
	tail := st.bufs.Get(size)
	keys := set.ha.Tail[w.lo:w.hi]
	if tailAttr == "" {
		copy(tail, keys)
	} else {
		vals := st.Relation().MustColumn(tailAttr).Vals
		for i, k := range keys {
			tail[i] = vals[k]
		}
	}
	c := &chunk{p: crack.WrapPairs(head, tail), lastCrack: st.queries, set: set, w: w, attr: tailAttr}
	c.p.Policy = set.ha.Policy
	w.chunks[tailAttr] = c
	st.account(c)
	heap.Push(&st.victims, victimKey{c.Priority(), c})
	st.life.Created++
	st.life.TuplesCreated += uint64(size)
	return c
}

// replay aligns the chunks cs of area w to tape position end. Chunks with
// a head replay together: at one cursor, each crack is decided once, on one
// head (sideways.Tape.ReplayJoint). A head-dropped chunk replays alone, and
// first, so it can still recover its head from a sibling at its cursor.
func (set *Set) replay(w *area, end int, cs ...*chunk) {
	rel := set.st.Relation()
	headCol := rel.MustColumn(set.attr)
	var joint []sideways.Member
	for _, c := range cs {
		if c.cursor >= end {
			continue
		}
		var tailCol *store.Column
		if c.attr != "" {
			tailCol = rel.MustColumn(c.attr)
		}
		if c.headDropped {
			set.replayDropped(w, c, end, headCol, tailCol)
			continue
		}
		for i := c.cursor; i < end; i++ {
			if _, isCrack := w.tape.CrackAt(i); isCrack {
				c.lastCrack = set.st.queries
				break
			}
		}
		joint = append(joint, sideways.Member{Pairs: c.p, Cursor: &c.cursor, Tail: tailCol})
	}
	w.tape.ReplayJoint(joint, end, headCol)
	for _, c := range cs {
		set.st.account(c)
	}
}

// replayDropped aligns head-dropped chunk c of area w to tape position end,
// entry by entry. It replays lazily: a crack entry whose bounds are already
// boundaries is a physical no-op and is skipped (Section 4.1: "if b matches
// one of the past cracks, cracking and thus full alignment of c is not
// necessary"). Any entry that would physically move tuples first recovers
// the head, since crack, ripple-insert and delete reorganize head and tail
// together.
func (set *Set) replayDropped(w *area, c *chunk, end int, headCol, tailCol *store.Column) {
	for ; c.cursor < end; c.cursor++ {
		pred, isCrack := w.tape.CrackAt(c.cursor)
		if c.headDropped {
			if isCrack && boundsKnown(c, pred) {
				continue
			}
			set.recoverHead(w, c)
		}
		w.tape.Replay(c.p, c.cursor, c.cursor+1, headCol, tailCol)
		if isCrack {
			c.lastCrack = set.st.queries
		}
	}
}

// boundsKnown reports whether both bounds of pred are already boundaries in
// the chunk's index, making a crack replay a physical no-op.
func boundsKnown(c *chunk, pred store.Pred) bool {
	return c.p.Idx.Has(pred.LowerBound()) && c.p.Idx.Has(pred.UpperBound())
}

// recoverHead restores a dropped head column (Section 4.1). Fast path: copy
// from a sibling chunk of the same area at the same cursor. Otherwise the
// head is rebuilt from the frozen H_A span by replaying the tape prefix —
// deterministic cracking guarantees the rebuilt head pairs correctly with
// the surviving tail.
func (set *Set) recoverHead(w *area, c *chunk) {
	st := set.st
	defer st.account(c)
	for _, sib := range w.chunks {
		if sib != c && !sib.headDropped && sib.cursor == c.cursor {
			head := st.bufs.Get(len(sib.p.Head))
			copy(head, sib.p.Head)
			c.p.Head = head
			c.headDropped = false
			return
		}
	}
	size := w.hi - w.lo
	head := st.bufs.Get(size)
	copy(head, set.ha.Head[w.lo:w.hi])
	// The replay drags a tail along whose values nobody reads.
	tmp := crack.WrapPairs(head, st.bufs.Get(size))
	// Replay under the set's policy: the rebuilt head must make the same
	// pivot decisions the chunk originally did to pair with its tail.
	tmp.Policy = set.ha.Policy
	w.tape.Replay(tmp, 0, c.cursor, st.Relation().MustColumn(set.attr), nil)
	c.p.Head = tmp.Head
	c.headDropped = false
	c.p.Stats.Add(tmp.Stats) // the rebuild is kernel work done for c
	st.release(tmp.Tail)
}

// DropHead explicitly drops the head column of every chunk in every set,
// keeping only tails (used by experiments; normally the automatic policies
// in maybeDropHeads apply).
func (s *Store) DropHead() {
	for _, set := range s.sets {
		for _, w := range set.areas {
			for _, c := range w.chunks {
				if !c.headDropped {
					s.dropHead(c)
				}
			}
		}
	}
}

// maybeDropHeads applies the two head-drop opportunities of Section 4.1 to
// the chunks used by the current query.
func (s *Store) maybeDropHeads(used []*chunk) {
	if s.CachedPieceTuples <= 0 && s.HeadDropIdleQueries <= 0 {
		return
	}
	for _, c := range used {
		if c.headDropped {
			continue
		}
		if s.CachedPieceTuples > 0 && maxPiece(c) <= s.CachedPieceTuples {
			s.dropHead(c)
			continue
		}
		if s.HeadDropIdleQueries > 0 && s.queries-c.lastCrack >= s.HeadDropIdleQueries {
			s.dropHead(c)
		}
	}
}

// maxPiece returns the largest piece size of chunk c.
func maxPiece(c *chunk) int {
	largest := 0
	prev := 0
	c.p.Idx.Walk(func(b crackindex.Bound, pos int) {
		if pos-prev > largest {
			largest = pos - prev
		}
		prev = pos
	})
	if c.Len()-prev > largest {
		largest = c.Len() - prev
	}
	return largest
}

// ensureBudget evicts the unpinned chunks of lowest Usage priority until
// size more tuples fit in the budget; chunks of equal priority go in (set
// attribute, area id, tail attribute) order, so one query stream always
// evicts the same chunks. Dropping an area's last chunk un-fetches the area.
func (s *Store) ensureBudget(size int, pinned map[*chunk]bool) {
	if s.Budget <= 0 {
		return
	}
	var held []victimKey // pinned chunks that surfaced
	for s.storage+size > s.Budget && len(s.victims) > 0 {
		top := &s.victims[0]
		if prio := top.c.Priority(); prio != top.prio {
			top.prio = prio
			heap.Fix(&s.victims, 0)
			continue
		}
		k := heap.Pop(&s.victims).(victimKey)
		if pinned[k.c] {
			held = append(held, k)
			continue
		}
		s.evict(k.c)
	}
	// With everything else gone the query exceeds the budget.
	for _, k := range held {
		heap.Push(&s.victims, k)
	}
}

// evict drops chunk c, already off the victim heap, and recycles its columns.
func (s *Store) evict(c *chunk) {
	delete(c.w.chunks, c.attr)
	s.storage -= c.cost
	s.Retire(&c.Usage, c.p.Stats)
	s.life.Evicted++
	s.evictedAccesses += c.Accesses()
	s.release(c.p.Head)
	s.release(c.p.Tail)
	// Never un-fetch an area the in-flight query resolved: pushing its
	// tape updates back to pending while the query holds the area
	// object would double-apply them. An empty fetched area is valid.
	if len(c.w.chunks) == 0 && !s.pinnedAreas[c.w] {
		c.set.unfetch(c.w)
	}
}

// Query is the set-level partial sideways.select: resolve/fetch the areas
// covering pred, merge relevant pending updates into the area tapes, crack
// boundary chunks, partially align covered chunks, and return one window
// per area in value order (chunk-wise processing, Section 4.1): the aligned
// chunk tails, parallel to tailAttrs, and the qualifying position range
// within them.
func (set *Set) Query(pred store.Pred, tailAttrs []string) []sideways.Window {
	set.st.queries++
	areas, _ := set.resolve(pred, true)
	if len(areas) == 0 {
		return nil
	}
	set.st.pinnedAreas = make(map[*area]bool, len(areas))
	for _, w := range areas {
		set.st.pinnedAreas[w] = true
	}
	defer func() { set.st.pinnedAreas = nil }()
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()

	// Merge pending insertions into the tapes of the areas they belong to,
	// and pending deletions via each area's key chunk.
	ins := set.perArea(areas, set.pend.TakeInserts(pred))
	del := set.perArea(areas, set.pend.TakeDeletes(pred))
	for _, w := range areas {
		if keys := ins[w]; len(keys) > 0 {
			w.tape.LogInsert(keys)
			w.lastUpdate = len(w.tape)
		}
		if keys := del[w]; len(keys) > 0 {
			kc := set.ensureChunk(w, "", nil)
			set.replay(w, len(w.tape), kc)
			if kc.headDropped {
				// Replay recovers a dropped head only for entries that move
				// tuples; locating keys reads it, as the delete entry's own
				// replay below would.
				set.recoverHead(w, kc)
			}
			positions, _ := kc.p.Locate(pred, set.pend.Rows(keys, []*store.Column{nil}), kc.p.Tail)
			w.tape.LogDelete(keys, positions)
			w.lastUpdate = len(w.tape)
			set.replay(w, len(w.tape), kc)
		}
	}

	// Append crack entries to boundary areas only (Section 4.1, partial
	// alignment: "only the boundary chunks might need to be cracked").
	first, last := areas[0], areas[len(areas)-1]
	if first.loB.Less(lowerB) {
		first.tape.LogCrack(pred)
	}
	if upperB.Less(last.hiB) && (last != first || !first.loB.Less(lowerB)) {
		last.tape.LogCrack(pred)
	}

	// Align chunks and build windows.
	wins := make([]sideways.Window, 0, len(areas))
	pinned := make(map[*chunk]bool)
	var usedChunks []*chunk
	for _, w := range areas {
		// Partial alignment (Section 4.1): boundary areas align to the
		// tape end (they must replay this query's crack); covered areas
		// align only to the maximum cursor among the chunks this query
		// uses — but never short of the last update entry, which affects
		// chunk contents rather than just their internal order.
		cutLo, cutHi := w == first && first.loB.Less(lowerB), w == last && upperB.Less(last.hiB)
		target := len(w.tape)
		if !cutLo && !cutHi && !set.st.ForceFullAlignment {
			target = w.lastUpdate
			for _, attr := range tailAttrs {
				if c, ok := w.chunks[attr]; ok && c.cursor > target {
					target = c.cursor
				}
			}
		}
		// Pin every chunk the area needs before any replays, so the area's
		// chunks align together.
		chunks := make([]*chunk, len(tailAttrs))
		for i, attr := range tailAttrs {
			chunks[i] = set.ensureChunk(w, attr, pinned)
			pinned[chunks[i]] = true
		}
		set.replay(w, target, chunks...)
		for _, c := range chunks {
			set.st.Touch(&c.Usage)
		}
		usedChunks = append(usedChunks, chunks...)
		win, ok := windowOf(chunks, cutLo, cutHi, lowerB, upperB)
		if !ok {
			panic(fmt.Sprintf("partial: missing boundary after alignment for %v", pred))
		}
		wins = append(wins, win)
	}
	set.st.maybeDropHeads(usedChunks)
	return wins
}

// windowOf returns the window over the aligned chunks of one area: all of
// it, cut at lowerB and/or upperB where the area is a boundary area on that
// side. ok is false when a cut is not a boundary of the chunks' index yet.
func windowOf(chunks []*chunk, cutLo, cutHi bool, lowerB, upperB crackindex.Bound) (win sideways.Window, ok bool) {
	win.Tails = make([][]Value, len(chunks))
	for i, c := range chunks {
		win.Tails[i] = c.p.Tail
	}
	if len(chunks) == 0 {
		return win, true
	}
	win.Hi = chunks[0].Len()
	if cutLo {
		if win.Lo, ok = chunks[0].p.Idx.Lookup(lowerB); !ok {
			return win, false
		}
	}
	if cutHi {
		if win.Hi, ok = chunks[0].p.Idx.Lookup(upperB); !ok {
			return win, false
		}
	}
	if win.Hi < win.Lo {
		win.Hi = win.Lo
	}
	return win, true
}

// perArea groups pending-update keys by the resolved area their head value
// falls in, keeping their order.
func (set *Set) perArea(areas []*area, keys []int) map[*area][]int {
	if len(keys) == 0 {
		return nil
	}
	headCol := set.st.Relation().MustColumn(set.attr)
	out := make(map[*area][]int)
	for _, k := range keys {
		w := findArea(areas, crackindex.Bound{V: headCol.Vals[k], Incl: true})
		out[w] = append(out[w], k)
	}
	return out
}

// findArea returns the area covering b. The areas a query resolved jointly
// cover its predicate, so a bound matching the predicate always has one.
func findArea(areas []*area, b crackindex.Bound) *area {
	for _, w := range areas {
		if w.covers(b) {
			return w
		}
	}
	panic(fmt.Sprintf("partial: %v outside the resolved areas", b))
}

// EstimateSelectivity estimates |pred(attr)| using the chunk map's cracker
// index, falling back to uniform base-column statistics.
func (s *Store) EstimateSelectivity(attr string, pred store.Pred) int {
	if set := s.sets[attr]; set != nil {
		_, _, est := set.ha.Idx.Estimate(pred.LowerBound(), pred.UpperBound(), set.ha.Len())
		return est
	}
	return s.UniformEstimate(attr, pred)
}

// SelectProject evaluates select projs from R where pred(selAttr) with
// chunk-wise processing.
func (s *Store) SelectProject(selAttr string, pred store.Pred, projs []string) Result {
	return s.MultiSelect([]AttrPred{{Attr: selAttr, Pred: pred}}, projs, false)
}

// plan lays out a multi-selection plan (the head predicate's set is chosen
// via the chunk-map histograms) and the value range the set is queried
// for. A disjunction must evaluate the head predicate outside its cracked
// region too, so it reads the whole domain and the head attribute itself
// as one more tail, in slot headSlot.
func (s *Store) plan(preds []AttrPred, projs []string, disjunctive bool) (pl sideways.Plan, pred store.Pred, headSlot int) {
	pl = sideways.PlanMulti(s, preds, projs, disjunctive)
	if disjunctive {
		return pl, sideways.FullRange, pl.Slot(pl.Head.Attr)
	}
	return pl, pl.Head.Pred, -1
}

// MultiSelect evaluates a multi-selection query (Section 3.3 semantics on
// partial maps, processed chunk by chunk).
func (s *Store) MultiSelect(preds []AttrPred, projs []string, disjunctive bool) Result {
	pl, pred, headSlot := s.plan(preds, projs, disjunctive)
	return finish(&pl, headSlot, s.Set(pl.Head.Attr).Query(pred, pl.Tails))
}

// finish answers a plan from its aligned windows. A pure read, shared by
// the write path and the read-only path.
func finish(pl *sideways.Plan, headSlot int, wins []sideways.Window) Result {
	if headSlot < 0 {
		return pl.Conjunctive(wins)
	}
	// Disjunctive: per window, mark the tuples matching any predicate. The
	// windows span whole chunks, and chunks of different areas share no
	// position space, so the head predicate is tested by value.
	marks := make([]*bitvec.Vector, len(wins))
	for k, w := range wins {
		bv := bitvec.New(w.Hi - w.Lo)
		headTail := w.Tails[headSlot]
		for i := w.Lo; i < w.Hi; i++ {
			if pl.Head.Pred.Matches(headTail[i]) {
				bv.Set(i - w.Lo)
				continue
			}
			for j, ap := range pl.Others {
				if ap.Pred.Matches(pl.OtherTail(w, j)[i]) {
					bv.Set(i - w.Lo)
					break
				}
			}
		}
		marks[k] = bv
	}
	return pl.Reconstruct(wins, marks)
}

// windowsRO builds the chunk-wise windows for pred, and the chunks they
// read, without replaying, fetching, or cracking anything. ok is false when
// the write path would reorganize: a gap needs fetching, a chunk is missing
// or misaligned, or a boundary chunk lacks the predicate's physical bounds.
func (s *Store) windowsRO(set *Set, pred store.Pred, tailAttrs []string) (wins []sideways.Window, used []*chunk, ok bool) {
	areas, ok := set.resolve(pred, false)
	if !ok {
		return nil, nil, false
	}
	if len(areas) == 0 {
		return nil, nil, true
	}
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()
	first, last := areas[0], areas[len(areas)-1]
	wins = make([]sideways.Window, 0, len(areas))
	used = make([]*chunk, 0, len(areas)*len(tailAttrs))
	for _, w := range areas {
		chunks := make([]*chunk, 0, len(tailAttrs))
		cursor := -1
		for _, attr := range tailAttrs {
			c, ok := w.chunks[attr]
			if !ok {
				return nil, nil, false
			}
			// The write path replays laggards to a shared target; a cursor
			// mismatch among the used chunks means replay work.
			if cursor == -1 {
				cursor = c.cursor
			} else if c.cursor != cursor {
				return nil, nil, false
			}
			chunks = append(chunks, c)
		}
		used = append(used, chunks...)
		cutLo, cutHi := w == first && first.loB.Less(lowerB), w == last && upperB.Less(last.hiB)
		if len(tailAttrs) > 0 {
			if cutLo || cutHi || s.ForceFullAlignment {
				// Boundary chunks must already sit at the tape end (the
				// write path would replay this query's crack onto them).
				if cursor != len(w.tape) {
					return nil, nil, false
				}
			} else if cursor < w.lastUpdate {
				// Partial alignment may lag on cracks but never on updates.
				return nil, nil, false
			}
		}
		win, ok := windowOf(chunks, cutLo, cutHi, lowerB, upperB)
		if !ok {
			return nil, nil, false
		}
		wins = append(wins, win)
	}
	return wins, used, true
}

// planRO resolves a full read-only plan or reports ok == false when the
// query needs the write path.
func (s *Store) planRO(preds []AttrPred, projs []string, disjunctive bool) (pl sideways.Plan, headSlot int, wins []sideways.Window, used []*chunk, ok bool) {
	if len(preds) == 0 {
		return pl, 0, nil, nil, false
	}
	pl, pred, headSlot := s.plan(preds, projs, disjunctive)
	set := s.sets[pl.Head.Attr]
	if set == nil || !set.pend.Settled(pl.Head.Pred, disjunctive) {
		return pl, 0, nil, nil, false
	}
	wins, used, ok = s.windowsRO(set, pred, pl.Tails)
	return pl, headSlot, wins, used, ok
}

// MultiSelectROInto is the reorganization-free execute path of the two-phase
// protocol: it answers the query only when every needed chunk exists,
// is sufficiently aligned, and no pending update or fetch is required.
// ok is false otherwise; callers then fall back to MultiSelect under
// exclusive access. The chunks' Usage is bumped atomically; the head-drop
// idle clock is not advanced by read-only queries. The answer is written
// into the memory the caller lends (sideways.Plan.Into), or into fresh
// columns when into is nil; into is untouched when ok is false.
func (s *Store) MultiSelectROInto(into *Result, preds []AttrPred, projs []string, disjunctive bool) (Result, bool) {
	pl, headSlot, wins, used, ok := s.planRO(preds, projs, disjunctive)
	if !ok {
		return Result{}, false
	}
	// No dedup needed: windows are one per area and an area's chunks are
	// keyed by distinct tail attributes, so no chunk repeats.
	for _, c := range used {
		s.Touch(&c.Usage)
	}
	pl.Into = into
	return finish(&pl, headSlot, wins), true
}

// checkStorage verifies the running storage total against a full recount.
func (s *Store) checkStorage() error {
	recount := 0
	for _, set := range s.sets {
		for _, w := range set.areas {
			for _, c := range w.chunks {
				recount += c.tuples()
			}
		}
	}
	if recount != s.storage {
		return fmt.Errorf("running storage total %d, recount %d", s.storage, recount)
	}
	return nil
}

// sanity check helper used by tests: verify the storage total and every
// chunk's piece invariants.
func (s *Store) checkInvariants() error {
	if err := s.checkStorage(); err != nil {
		return err
	}
	for attr, set := range s.sets {
		if !set.ha.CheckPieces() {
			return fmt.Errorf("chunk map H_%s violates piece invariants", attr)
		}
		for _, w := range set.areas {
			for tattr, c := range w.chunks {
				if !c.headDropped && !c.p.CheckPieces() {
					return fmt.Errorf("chunk %s/%d/%s violates piece invariants", attr, w.id, tattr)
				}
			}
		}
	}
	return nil
}
