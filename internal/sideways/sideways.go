// Package sideways implements sideways cracking (Sections 3 and 4 of the
// paper): the one map store, with fully materialized cracker maps and with
// partial maps as its two presets.
//
// A cracker map M_AB is a two-column table: head = values of attribute A,
// tail = values of attribute B, pairwise from the same relational tuples.
// All maps with head A form the map set S_A. Every selection on A cracks the
// map(s) a query uses and is logged in a cracker tape; a map is aligned
// (synchronized) by replaying the tape from its private cursor. The
// deterministic cracking algorithms in internal/crack guarantee that maps
// replaying the same tape prefix are physically identical in head order, so
// multi-attribute results are positionally aligned and tuple reconstruction
// is free (Section 3.2). The same fact makes alignment cheaper: maps at one
// cursor replay the tape once, each crack decided on one head and applied
// to the others as followers (Tape.ReplayJoint).
//
// Partial sideways cracking (Section 4) is the same store over value ranges.
// A set divides its value domain into areas; each area has its own tape, and
// a map over one area is a chunk. Under partial maps (NewPartialStore) a set
// owns a chunk map H_A — a cracker column over (A, key) — whose spans are the
// areas: an area is fetched when the first chunk materializes from it, and a
// fetched span of H_A is frozen so every chunk created from it starts from
// the same layout. Chunks of a covered area align only as far as the query
// needs (partial alignment); only the boundary areas are cracked. Under full
// maps (NewStore) every set has exactly one area, spanning the whole domain:
// it needs no H_A, because its source is the base prefix in key order, and
// every bounded predicate cuts it, so it logs every crack and aligns to its
// tape end. A full map is that area's chunk.
//
// Multi-selection queries use a single set plus bit-vector filtering
// (Section 3.3); the set is chosen via the self-organizing histograms of the
// cracker indices. Updates follow Section 3.5: pending insertions and
// deletions per set, merged on demand into the tapes of the areas they fall
// in and applied by the Ripple algorithm in tape order. A merged deletion is
// found by value: its tuple is the one position of the chunks the query
// aligns anyway whose head and tails equal the deleted row. Only when those
// columns hold an equal tuple beside it does the area build its key chunk
// (tail = tuple keys) to find it by key.
//
// The storage manager keeps chunks within a budget. Eviction is
// least-frequently-used with dynamic aging (Usage): a chunk's priority is its
// access count plus the store's age at its last use, the age being the
// priority of the last victim. The paper's plain count thrashes on its own
// Fig 9 cycle: the victim is the chunk created one query ago, with its count
// of one, while the well-used chunks of a batch that has ended are kept for
// good. Victims come off a heap with lazily refreshed keys, since read-only
// queries raise priorities atomically and cannot reorder anything. Dropping
// the last chunk of an area un-fetches it: its tape's updates are pushed back
// to the set's pending updates, so nothing is lost. Heavily cracked or idle
// chunks can drop their head column; the head is recovered deterministically
// from the area's source by replaying the tape prefix, or copied from a
// same-cursor sibling (Section 4.1, "Dropping the Head Column"). The columns
// of evicted chunks and dropped heads go to a store-owned free list that new
// chunks and recovered heads draw from (see release for the ownership rule).
package sideways

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Map is one materialized map over one area: a (head, tail) pairs table
// covering the area's value range, plus a cursor into the area's tape. Under
// full maps it is the whole map M_A,tail; under partial maps a chunk of it.
// The tail holds tuple keys in the area's key chunk.
type Map struct {
	pairs       *crack.Pairs
	cursor      int
	Usage       // eviction priority; touched atomically by read-only queries
	headDropped bool
	lastCrack   int // store query counter at the last replayed crack entry
	cost        int // tuples() as last added to Store.storage (see account)

	// Where the map lives: what eviction needs to remove it, and the
	// (set attribute, area id, tail attribute) order of equal priorities.
	set      *Set
	w        *area
	tailAttr string // "" for the key chunk
}

// Len returns the number of tuples currently in the map.
func (m *Map) Len() int { return len(m.pairs.Tail) }

// Cursor returns the map's tape cursor.
func (m *Map) Cursor() int { return m.cursor }

// Pairs exposes the underlying pairs (head/tail/index) read-only by
// convention.
func (m *Map) Pairs() *crack.Pairs { return m.pairs }

// tuples returns the map's storage cost in tuples: a full map of n pairs
// costs n; a head-dropped one costs half (rounded up).
func (m *Map) tuples() int {
	if m.headDropped {
		return (m.Len() + 1) / 2
	}
	return m.Len()
}

// area is a fetched value range of a set: the span [lo, hi) of its source
// (H_A, or the base prefix for a whole-domain area) frozen at fetch time,
// its own cracker tape, and the maps materialized from it, keyed by tail
// attribute ("" is the key chunk).
type area struct {
	id       int
	lo, hi   int
	loB, hiB crackindex.Bound
	tape     Tape
	// lastUpdate is one past the tape index of the most recent insert or
	// delete entry. Partial alignment may lag on crack entries but must
	// never leave an update entry unapplied in a map it returns data from.
	lastUpdate int
	maps       map[string]*Map
}

// covers reports whether bound b falls in [loB, hiB).
func (w *area) covers(b crackindex.Bound) bool {
	return !b.Less(w.loB) && b.Less(w.hiB)
}

// Set is a map set S_A: its fetched areas, the chunk map H_A under partial
// maps, and the set's pending updates.
type Set struct {
	st     *Store
	attr   string
	ha     *crack.Pairs // chunk map H_A: head = A values, tail = keys; nil under full maps
	areas  []*area      // fetched areas, ascending by value range
	pend   *Pending     // updates not yet in an area tape
	nextID int

	// policy is the store's cracking policy frozen at set creation: every
	// map of the set replays a shared tape and must make identical pivot
	// decisions, so a later Store.Policy change must not split a set.
	policy crack.Policy
}

// Attr returns the head attribute name.
func (set *Set) Attr() string { return set.attr }

// NumAreas returns the number of fetched areas.
func (set *Set) NumAreas() int { return len(set.areas) }

// TapeLen returns the length of the set's longest area tape: under full
// maps, its one tape.
func (set *Set) TapeLen() int {
	n := 0
	for _, w := range set.areas {
		n = max(n, len(w.tape))
	}
	return n
}

// Maps returns the set's live maps with a tail attribute, area by area.
func (set *Set) Maps() []*Map {
	var out []*Map
	for _, w := range set.areas {
		for attr, m := range w.maps {
			if attr != "" {
				out = append(out, m)
			}
		}
	}
	return out
}

// whole returns the set's whole-domain area under full maps, nil under
// partial maps or while the set has no maps.
func (set *Set) whole() *area {
	if set.ha != nil || len(set.areas) == 0 {
		return nil
	}
	return set.areas[0]
}

// MapIfExists returns the full map for tailAttr, nil when it is not
// materialized or the set keeps partial maps.
func (set *Set) MapIfExists(tailAttr string) *Map {
	if w := set.whole(); w != nil {
		return w.maps[tailAttr]
	}
	return nil
}

// MostAlignedMap returns the full map of the set whose cursor is closest to
// the tape end (Section 3.3: better aligned maps give better estimates), or
// nil when the set has none or keeps partial maps.
func (set *Set) MostAlignedMap() *Map {
	w := set.whole()
	if w == nil {
		return nil
	}
	var best *Map
	for attr, m := range w.maps {
		if attr != "" && (best == nil || m.cursor > best.cursor) {
			best = m
		}
	}
	return best
}

// Store owns a base relation plus all map sets built over it.
type Store struct {
	Base
	sets    map[string]*Set
	partial bool // sets keep a chunk map and fetch areas of it

	// Budget is the storage threshold T in tuples over all maps (chunk maps
	// excluded, like the cracker columns of selection cracking); 0 means
	// unlimited.
	Budget int
	// CachedPieceTuples enables head dropping for maps whose pieces all fit
	// in a CPU-cache-sized window of this many tuples; 0 disables.
	CachedPieceTuples int
	// HeadDropIdleQueries drops the head of maps not cracked for this many
	// queries; 0 disables.
	HeadDropIdleQueries int

	// Policy is the adaptive cracking policy (crack.Policy) applied to maps
	// and chunk maps. It is frozen per set at set creation, so set Policy
	// before the first query touches an attribute. Lazy head-drop replay
	// stays valid under every policy: a crack whose bounds are existing
	// boundaries is a physical no-op.
	Policy crack.Policy

	queries     int
	storage     int            // running sum of Map.tuples() over all live maps
	pinnedAreas map[*area]bool // areas resolved by the in-flight query
	victims     victimHeap     // every live map, lowest eviction priority first
	bufs        store.FreeList // columns of evicted maps and dropped heads
	life        ChunkStats
	// evictedAccesses sums the access counts of evicted maps: a mean near
	// one says the manager evicts what it created a query ago.
	evictedAccesses int64
}

// NewStore wraps rel (not copied) for sideways cracking with full maps.
func NewStore(rel *store.Relation) *Store {
	return &Store{Base: NewBase(rel), sets: make(map[string]*Set)}
}

// NewPartialStore wraps rel (not copied) for partial sideways cracking.
func NewPartialStore(rel *store.Relation) *Store {
	s := NewStore(rel)
	s.partial = true
	return s
}

// ChunkStats counts the map lifecycle since the store was created.
type ChunkStats struct {
	Created       uint64 // maps materialized
	TuplesCreated uint64 // tuples copied and gathered into them
	Evicted       uint64 // maps dropped for the budget
	// Columns handed to new maps and recovered heads under a budget: taken
	// from the free list, or allocated because it held none of the size
	// class.
	BuffersRecycled, BuffersAllocated uint64
}

// ChunkStats returns the lifecycle counters. Call it under the same
// synchronization as queries.
func (s *Store) ChunkStats() ChunkStats {
	st := s.life
	st.BuffersRecycled, st.BuffersAllocated = s.bufs.Recycled, s.bufs.Allocated
	return st
}

// victimHeap orders the store's live maps by eviction priority. Keys are
// lazy: a use raises a map's priority without touching the heap (read-only
// queries could not), so a key may be lower than the truth, never higher,
// and ensureBudget refreshes whatever surfaces before trusting it.
type victimHeap []victimKey

type victimKey struct {
	prio int64
	m    *Map
}

func (h victimHeap) Len() int      { return len(h) }
func (h victimHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h victimHeap) Less(i, j int) bool {
	a, b := h[i].m, h[j].m
	switch {
	case h[i].prio != h[j].prio:
		return h[i].prio < h[j].prio
	case a.set.attr != b.set.attr:
		return a.set.attr < b.set.attr
	case a.w.id != b.w.id:
		return a.w.id < b.w.id
	}
	return a.tailAttr < b.tailAttr
}
func (h *victimHeap) Push(x any) { *h = append(*h, x.(victimKey)) }
func (h *victimHeap) Pop() any {
	old := *h
	k := old[len(old)-1]
	old[len(old)-1] = victimKey{}
	*h = old[:len(old)-1]
	return k
}

// NumSets returns the number of materialized map sets.
func (s *Store) NumSets() int { return len(s.sets) }

// Kernel aggregates the kernel partition counters over every chunk map and
// every map the store has had, key chunks and evicted maps included, and the
// cracker-index sizes over the live ones: the observability bridge. Call it
// under the same synchronization as queries (the stats are plain ints on the
// Pairs).
func (s *Store) Kernel() (ks crack.KernelStats, pieces, cols int) {
	ks = s.RetiredKernel()
	count := func(p *crack.Pairs) {
		ks.Add(p.Stats)
		pieces += p.Idx.Pieces()
		cols++
	}
	for _, set := range s.sets {
		if set.ha != nil {
			count(set.ha)
		}
		for _, w := range set.areas {
			for _, m := range w.maps {
				count(m.pairs)
			}
		}
	}
	return ks, pieces, cols
}

// StorageTuples returns the total map storage in tuples (a map of length n
// costs n, as in the paper's Figures 9(d)/10(c); head-dropped maps count
// half). The chunk maps are excluded; see ChunkMapTuples.
func (s *Store) StorageTuples() int { return s.storage }

// ChunkMapTuples returns the total size of all chunk maps H_A in tuples.
func (s *Store) ChunkMapTuples() int {
	total := 0
	for _, set := range s.sets {
		if set.ha != nil {
			total += set.ha.Len()
		}
	}
	return total
}

// account brings the running storage total up to date with map m. Every
// step that changes what a live map costs — creation, ripple updates,
// dropping or recovering its head — ends with it, so the budget check never
// has to re-walk the maps.
func (s *Store) account(m *Map) {
	s.storage += m.tuples() - m.cost
	m.cost = m.tuples()
}

// release hands a column nothing refers to any more to bufs, the store's free
// list of map columns. Under a budget map creation is steady-state work, and
// a fresh column costs its zeroing plus a page fault per 4 KB on top of the
// copy that fills it; a recycled one costs the copy.
//
// Ownership: a column enters the list when its map is evicted or its head is
// dropped — on the write path, under exclusive access — and from then on
// nothing else refers to it. A Window holds columns of maps the in-flight
// query pinned, eviction skips pinned maps, a head drop releases the head
// only and never the head of a window the query still reads, read-only
// queries never run beside the write path, and a Result is always a copy.
// The list holds at most Budget/8 values — a sixteenth of the bytes the
// budget allows live maps — and nothing without a budget.
func (s *Store) release(buf []Value) { s.bufs.Put(buf, s.Budget/8) }

// column returns a column of n values to fill: from the free list under a
// budget, freshly allocated otherwise.
func (s *Store) column(n int) []Value {
	if s.Budget > 0 {
		return s.bufs.Get(n)
	}
	return make([]Value, n)
}

// copyOf returns a copy of src: drawn from the free list under a budget,
// otherwise cloned, which skips zeroing memory the copy overwrites anyway.
func (s *Store) copyOf(src []Value) []Value {
	if s.Budget > 0 {
		buf := s.bufs.Get(len(src))
		copy(buf, src)
		return buf
	}
	return slices.Clone(src)
}

// dropHead drops map m's head column, keeping only the tail.
func (s *Store) dropHead(m *Map) {
	s.release(m.pairs.Head)
	m.pairs.Head = nil
	m.headDropped = true
	s.account(m)
}

// Set returns the map set for attr, creating it on demand (see NewPending
// for what a set created after updates starts from). Under partial maps the
// chunk map H_A is built from the current base state.
func (s *Store) Set(attr string) *Set {
	if set, ok := s.sets[attr]; ok {
		return set
	}
	// NewPending validates attr before anything is registered: a panic on
	// an unknown attribute must not leave a half-created set behind (a
	// later read-only probe would mistake it for real cracking knowledge).
	set := &Set{st: s, attr: attr, pend: NewPending(&s.Base, attr), policy: s.Policy}
	if s.partial {
		head := slices.Clone(set.pend.head.Vals[:set.pend.baseLen]) // no zeroing pass before the copy
		set.ha = crack.WrapPairs(head, keyRange(0, len(head)))
		set.ha.Policy = s.Policy
	}
	s.sets[attr] = set
	return set
}

// keyRange returns the keys lo, lo+1, ..., hi-1.
func keyRange(lo, hi int) []Value {
	keys := make([]Value, hi-lo)
	for i := range keys {
		keys[i] = Value(lo + i)
	}
	return keys
}

// SetIfExists returns the map set for attr if it is materialized.
func (s *Store) SetIfExists(attr string) *Set { return s.sets[attr] }

var (
	minBound = crackindex.Bound{V: math.MinInt64, Incl: true}  // before all values
	maxBound = crackindex.Bound{V: math.MaxInt64, Incl: false} // after all values
)

// resolve returns, in value order, the fetched areas that jointly cover
// pred's value range. With fetch set, gap areas are fetched as needed
// (Section 4.1, "Creating Chunks"); newly fetched areas of H_A cover exactly
// the needed range, so only pre-existing boundary areas may require cracking.
// Under full maps the one whole-domain area covers every predicate. Without
// fetch resolve is read-only and reports ok == false when a gap would have to
// be fetched.
func (set *Set) resolve(pred store.Pred, fetch bool) (out []*area, ok bool) {
	if set.ha == nil {
		if len(set.areas) == 0 {
			if !fetch {
				return nil, false
			}
			set.fetch(minBound, maxBound)
		}
		return set.areas, true
	}
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

// fetch marks the source span of value range [lo, hi) as a fetched area and
// returns it. Under partial maps it cracks H_A at the bounds (in the unfetched
// gap they fall in); under full maps the span is the whole base prefix.
func (set *Set) fetch(lo, hi crackindex.Bound) *area {
	p1, p2 := 0, set.pend.baseLen
	if set.ha != nil {
		p1, p2 = crackHABound(set.ha, lo), crackHABound(set.ha, hi)
		p2 = max(p2, p1)
	}
	w := &area{id: set.nextID, lo: p1, hi: p2, loB: lo, hiB: hi, maps: make(map[string]*Map)}
	set.nextID++
	at := sort.Search(len(set.areas), func(k int) bool { return lo.Less(set.areas[k].loB) })
	set.areas = slices.Insert(set.areas, at, w)
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
	set.areas = slices.DeleteFunc(set.areas, func(a *area) bool { return a == w })
}

// spanHead returns the head values of area w's source span, in the order
// every map of the area starts from.
func (set *Set) spanHead(w *area) []Value {
	if set.ha == nil {
		return set.pend.head.Vals[w.lo:w.hi]
	}
	return set.ha.Head[w.lo:w.hi]
}

// ensureMap materializes (or returns) the map of area w for tailAttr. A new
// map copies its head from the area's source span. Under partial maps its
// tail is gathered from the base column via the keys stored in H_A (Section
// 4.1: "we use the keys stored in w to get the B values from B's base
// column"); a whole-domain area's span is the base prefix in key order, so
// its tail is a plain copy. Creating a map may evict maps the in-flight query
// has not pinned.
func (set *Set) ensureMap(w *area, tailAttr string, pinned map[*Map]bool) *Map {
	if m, ok := w.maps[tailAttr]; ok {
		return m
	}
	st := set.st
	size := w.hi - w.lo
	st.ensureBudget(size, pinned)
	head := st.copyOf(set.spanHead(w))
	var tail []Value
	switch {
	case set.ha == nil && tailAttr == "":
		tail = keyRange(w.lo, w.hi)
	case set.ha == nil:
		tail = st.copyOf(st.rel.MustColumn(tailAttr).Vals[w.lo:w.hi])
	case tailAttr == "":
		tail = st.copyOf(set.ha.Tail[w.lo:w.hi])
	default:
		tail = st.column(size)
		vals := st.rel.MustColumn(tailAttr).Vals
		for i, k := range set.ha.Tail[w.lo:w.hi] {
			tail[i] = vals[k]
		}
	}
	m := &Map{pairs: crack.WrapPairs(head, tail), lastCrack: st.queries, set: set, w: w, tailAttr: tailAttr}
	m.pairs.Policy = set.policy
	w.maps[tailAttr] = m
	st.account(m)
	heap.Push(&st.victims, victimKey{m.Priority(), m})
	st.life.Created++
	st.life.TuplesCreated += uint64(size)
	return m
}

// tailCol returns the base column of m's tail attribute, nil for a tail of
// tuple keys.
func (set *Set) tailCol(m *Map) *store.Column {
	if m.tailAttr == "" {
		return nil
	}
	return set.st.rel.MustColumn(m.tailAttr)
}

// replay aligns the maps ms of area w to tape position end. Maps with a head
// replay together: at one cursor, each crack is decided once, on one head
// (Tape.ReplayJoint). A head-dropped map replays alone, and first, so it can
// still recover its head from a sibling at its cursor.
func (set *Set) replay(w *area, end int, ms ...*Map) {
	var joint []Member
	for _, m := range ms {
		if m.cursor >= end {
			continue
		}
		if m.headDropped {
			set.replayDropped(w, m, end)
			continue
		}
		for i := m.cursor; i < end; i++ {
			if _, isCrack := w.tape.CrackAt(i); isCrack {
				m.lastCrack = set.st.queries
				break
			}
		}
		joint = append(joint, Member{Pairs: m.pairs, Cursor: &m.cursor, Tail: set.tailCol(m)})
	}
	w.tape.ReplayJoint(joint, end, set.pend.head)
	for _, m := range ms {
		set.st.account(m)
	}
}

// replayDropped aligns head-dropped map m of area w to tape position end,
// entry by entry. It replays lazily: a crack entry whose bounds are already
// boundaries is a physical no-op and is skipped (Section 4.1: "if b matches
// one of the past cracks, cracking and thus full alignment of c is not
// necessary"). Any entry that would physically move tuples first recovers
// the head, since crack, ripple-insert and delete reorganize head and tail
// together.
func (set *Set) replayDropped(w *area, m *Map, end int) {
	for ; m.cursor < end; m.cursor++ {
		pred, isCrack := w.tape.CrackAt(m.cursor)
		if m.headDropped {
			if isCrack && m.pairs.Idx.Has(pred.LowerBound()) && m.pairs.Idx.Has(pred.UpperBound()) {
				continue
			}
			set.recoverHead(w, m)
		}
		w.tape.Replay(m.pairs, m.cursor, m.cursor+1, set.pend.head, set.tailCol(m))
		if isCrack {
			m.lastCrack = set.st.queries
		}
	}
}

// recoverHead restores a dropped head column (Section 4.1). Fast path: copy
// from a sibling map of the same area at the same cursor. Otherwise the head
// is rebuilt from the area's source span by replaying the tape prefix —
// deterministic cracking guarantees the rebuilt head pairs correctly with
// the surviving tail.
func (set *Set) recoverHead(w *area, m *Map) {
	st := set.st
	defer st.account(m)
	for _, sib := range w.maps {
		if sib != m && !sib.headDropped && sib.cursor == m.cursor {
			m.pairs.Head = st.copyOf(sib.pairs.Head)
			m.headDropped = false
			return
		}
	}
	// The replay drags a tail along whose values nobody reads.
	tmp := crack.WrapPairs(st.copyOf(set.spanHead(w)), st.column(w.hi-w.lo))
	// Replay under the set's policy: the rebuilt head must make the same
	// pivot decisions the map originally did to pair with its tail.
	tmp.Policy = set.policy
	w.tape.Replay(tmp, 0, m.cursor, set.pend.head, nil)
	m.pairs.Head = tmp.Head
	m.headDropped = false
	m.pairs.Stats.Add(tmp.Stats) // the rebuild is kernel work done for m
	st.release(tmp.Tail)
}

// DropHead explicitly drops the head column of every map in every set,
// keeping only tails (used by experiments; normally the automatic policies
// in maybeDropHeads apply).
func (s *Store) DropHead() {
	for _, set := range s.sets {
		for _, w := range set.areas {
			for _, m := range w.maps {
				if !m.headDropped {
					s.dropHead(m)
				}
			}
		}
	}
}

// maybeDropHeads applies the two head-drop opportunities of Section 4.1 to
// the maps used by the current query.
func (s *Store) maybeDropHeads(used []*Map) {
	if s.CachedPieceTuples <= 0 && s.HeadDropIdleQueries <= 0 {
		return
	}
	for _, m := range used {
		if m.headDropped {
			continue
		}
		if s.CachedPieceTuples > 0 && maxPiece(m) <= s.CachedPieceTuples ||
			s.HeadDropIdleQueries > 0 && s.queries-m.lastCrack >= s.HeadDropIdleQueries {
			s.dropHead(m)
		}
	}
}

// maxPiece returns the largest piece size of map m.
func maxPiece(m *Map) int {
	largest, prev := 0, 0
	m.pairs.Idx.Walk(func(_ crackindex.Bound, pos int) {
		largest = max(largest, pos-prev)
		prev = pos
	})
	return max(largest, m.Len()-prev)
}

// ensureBudget evicts the unpinned maps of lowest Usage priority until size
// more tuples fit in the budget; maps of equal priority go in (set attribute,
// area id, tail attribute) order, so one query stream always evicts the same
// maps. Dropping an area's last map un-fetches the area.
func (s *Store) ensureBudget(size int, pinned map[*Map]bool) {
	if s.Budget <= 0 {
		return
	}
	var held []victimKey // pinned maps that surfaced
	for s.storage+size > s.Budget && len(s.victims) > 0 {
		top := &s.victims[0]
		if prio := top.m.Priority(); prio != top.prio {
			top.prio = prio
			heap.Fix(&s.victims, 0)
			continue
		}
		k := heap.Pop(&s.victims).(victimKey)
		if pinned[k.m] {
			held = append(held, k)
			continue
		}
		s.evict(k.m)
	}
	// With everything else gone the query exceeds the budget.
	for _, k := range held {
		heap.Push(&s.victims, k)
	}
}

// evict drops map m, already off the victim heap, and recycles its columns.
func (s *Store) evict(m *Map) {
	delete(m.w.maps, m.tailAttr)
	s.storage -= m.cost
	s.Retire(&m.Usage, m.pairs.Stats)
	s.life.Evicted++
	s.evictedAccesses += m.Accesses()
	s.release(m.pairs.Head)
	s.release(m.pairs.Tail)
	// Never un-fetch an area the in-flight query resolved: pushing its
	// tape updates back to pending while the query holds the area object
	// would double-apply them. An empty fetched area is valid.
	if len(m.w.maps) == 0 && !s.pinnedAreas[m.w] {
		m.set.unfetch(m.w)
	}
}

// Query is the set-level sideways.select: resolve (and fetch) the areas
// covering pred, materialize the maps for tailAttrs, merge relevant pending
// updates into the area tapes, crack the boundary areas, partially align
// covered ones, and return one window per area in value order (chunk-wise
// processing, Section 4.1): the aligned map tails, parallel to tailAttrs, and
// the qualifying position range within them. With heads set every window also
// carries its leader's head column, recovered if it was dropped.
//
// Every existing map the query reads is pinned before any map is created, so
// making room for one never evicts another this query is about to read.
func (set *Set) Query(pred store.Pred, tailAttrs []string, heads bool) []Window {
	st := set.st
	st.queries++
	areas, _ := set.resolve(pred, true)
	if len(areas) == 0 {
		return nil
	}
	st.pinnedAreas = make(map[*area]bool, len(areas))
	pinned := make(map[*Map]bool)
	for _, w := range areas {
		st.pinnedAreas[w] = true
		for _, attr := range tailAttrs {
			if m, ok := w.maps[attr]; ok {
				pinned[m] = true
			}
		}
	}
	defer func() { st.pinnedAreas = nil }()
	used := make([][]*Map, len(areas))
	for i, w := range areas {
		used[i] = make([]*Map, len(tailAttrs))
		for j, attr := range tailAttrs {
			used[i][j] = set.ensureMap(w, attr, pinned)
			pinned[used[i][j]] = true
		}
	}

	// Merge pending insertions and deletions into the tapes of the areas
	// they fall in.
	ins := set.perArea(areas, set.pend.TakeInserts(pred))
	del := set.perArea(areas, set.pend.TakeDeletes(pred))
	for i, w := range areas {
		if keys := ins[w]; len(keys) > 0 {
			w.tape.LogInsert(keys)
			w.lastUpdate = len(w.tape)
		}
		if keys := del[w]; len(keys) > 0 {
			set.mergeDeletes(w, pred, keys, used[i], pinned)
		}
	}

	// Append crack entries to boundary areas only (Section 4.1, partial
	// alignment: "only the boundary chunks might need to be cracked").
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()
	first, last := areas[0], areas[len(areas)-1]
	if first.loB.Less(lowerB) {
		first.tape.LogCrack(pred)
	}
	if upperB.Less(last.hiB) && (last != first || !first.loB.Less(lowerB)) {
		last.tape.LogCrack(pred)
	}

	wins := make([]Window, len(areas))
	for i, w := range areas {
		// Partial alignment (Section 4.1): boundary areas align to the
		// tape end (they must replay this query's crack); covered areas
		// align only to the maximum cursor among the maps this query uses —
		// but never short of the last update entry, which affects map
		// contents rather than just their internal order.
		cutLo, cutHi := w == first && first.loB.Less(lowerB), w == last && upperB.Less(last.hiB)
		target := len(w.tape)
		if !cutLo && !cutHi {
			target = w.lastUpdate
			for _, m := range used[i] {
				target = max(target, m.cursor)
			}
		}
		set.replay(w, target, used[i]...)
		for _, m := range used[i] {
			st.Touch(&m.Usage)
		}
		if heads && len(used[i]) > 0 && used[i][0].headDropped {
			set.recoverHead(w, used[i][0])
		}
		var ok bool
		if wins[i], ok = windowOf(used[i], heads, cutLo, cutHi, lowerB, upperB); !ok {
			panic(fmt.Sprintf("sideways: missing boundary after alignment for %v", pred))
		}
	}
	if !heads {
		st.maybeDropHeads(slices.Concat(used...))
	}
	return wins
}

// mergeDeletes logs the deletion of keys, all in area w, in w's tape (Section
// 3.5). The deleted tuples are found by value in the maps ms the query uses,
// aligned to the tape end first, reading only the pieces pred falls into: a
// deleted tuple is the one position whose head and tails equal its row. When
// some deleted row equals a second tuple on those columns, the area's key
// chunk finds them by key instead.
func (set *Set) mergeDeletes(w *area, pred store.Pred, keys []int, ms []*Map, pinned map[*Map]bool) {
	positions, ok := set.locate(w, pred, keys, ms)
	if !ok {
		kc := set.ensureMap(w, "", pinned)
		positions, _ = set.locate(w, pred, keys, []*Map{kc})
		defer set.replay(w, len(w.tape), kc)
	}
	w.tape.LogDelete(keys, positions)
	w.lastUpdate = len(w.tape)
}

// locate aligns the maps ms of area w to the tape end and finds the tuples of
// keys among them by value: ms[0]'s head and every map's tail against each
// key's row (crack.Pairs.Locate). On the key chunk alone that is a search by
// key. unique is false when ms is empty or a row matches more than once.
func (set *Set) locate(w *area, pred store.Pred, keys []int, ms []*Map) (positions []int, unique bool) {
	if len(ms) == 0 {
		return nil, false
	}
	set.replay(w, len(w.tape), ms...)
	if ms[0].headDropped {
		// Replay recovers a dropped head only for entries that move tuples;
		// locating reads it.
		set.recoverHead(w, ms[0])
	}
	cols := make([]*store.Column, len(ms))
	tails := make([][]Value, len(ms))
	for i, m := range ms {
		cols[i], tails[i] = set.tailCol(m), m.pairs.Tail
	}
	return ms[0].pairs.Locate(pred, set.pend.Rows(keys, cols), tails...)
}

// windowOf returns the window over the aligned maps of one area, with the
// leader's head when heads is set: all of it, cut at lowerB and/or upperB
// where the area is a boundary area on that side. ok is false when a cut is
// not a boundary of the maps' index yet.
func windowOf(ms []*Map, heads, cutLo, cutHi bool, lowerB, upperB crackindex.Bound) (win Window, ok bool) {
	win.Tails = make([][]Value, len(ms))
	for i, m := range ms {
		win.Tails[i] = m.pairs.Tail
	}
	if len(ms) == 0 {
		return win, true
	}
	if heads {
		win.Head = ms[0].pairs.Head
	}
	win.Hi = ms[0].Len()
	if cutLo {
		if win.Lo, ok = ms[0].pairs.Idx.Lookup(lowerB); !ok {
			return win, false
		}
	}
	if cutHi {
		if win.Hi, ok = ms[0].pairs.Idx.Lookup(upperB); !ok {
			return win, false
		}
	}
	win.Hi = max(win.Hi, win.Lo)
	return win, true
}

// perArea groups pending-update keys by the resolved area their head value
// falls in, keeping their order.
func (set *Set) perArea(areas []*area, keys []int) map[*area][]int {
	if len(keys) == 0 {
		return nil
	}
	out := make(map[*area][]int)
	for _, k := range keys {
		w := findArea(areas, crackindex.Bound{V: set.pend.head.Vals[k], Incl: true})
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
	panic(fmt.Sprintf("sideways: %v outside the resolved areas", b))
}

// EstimateSelectivity estimates the number of tuples matching pred on attr
// from the self-organizing histogram of S_attr: its chunk map's under partial
// maps, its most aligned map's under full maps. Without either it falls back
// to a uniform estimate from base column stats.
func (s *Store) EstimateSelectivity(attr string, pred store.Pred) int {
	if set := s.sets[attr]; set != nil {
		p := set.ha
		if m := set.MostAlignedMap(); m != nil {
			p = m.pairs
		}
		if p != nil {
			_, _, est := p.Idx.Estimate(pred.LowerBound(), pred.UpperBound(), p.Len())
			return est
		}
	}
	return s.UniformEstimate(attr, pred)
}

// SelectProject evaluates a single-selection, multi-projection query
// (Section 3.2): select projs from R where pred(selAttr).
func (s *Store) SelectProject(selAttr string, pred store.Pred, projs []string) Result {
	return s.MultiSelect([]AttrPred{{Attr: selAttr, Pred: pred}}, projs, false)
}

// plan lays out a multi-selection plan — the map set is chosen via the
// self-organizing histograms — and the value range its set is queried for.
// A disjunction evaluates the head predicate outside its range too, so it
// reads the whole domain.
func (s *Store) plan(preds []AttrPred, projs []string, disjunctive bool) (Plan, store.Pred) {
	pl := PlanMulti(s, preds, projs, disjunctive)
	if disjunctive {
		return pl, FullRange
	}
	return pl, pl.Head.Pred
}

// MultiSelect evaluates a multi-selection query with optional projections
// (Section 3.3), chunk by chunk. Conjunctive plans pick the most selective
// predicate's set and filter the aligned candidate areas with bit vectors
// (select_create_bv / select_refine_bv / reconstruct); disjunctive plans
// pick the least selective set and test every tuple of its maps.
func (s *Store) MultiSelect(preds []AttrPred, projs []string, disjunctive bool) Result {
	pl, pred := s.plan(preds, projs, disjunctive)
	return pl.Finish(s.Set(pl.Head.Attr).Query(pred, pl.Tails, disjunctive), disjunctive)
}

// windowsRO builds the windows for pred, and the maps they read, without
// replaying, fetching, or cracking anything. ok is false when the write path
// would reorganize: a gap needs fetching, a map is missing or misaligned, a
// boundary map lacks the predicate's physical bounds, or a head the plan
// reads is dropped.
func (s *Store) windowsRO(set *Set, pred store.Pred, tailAttrs []string, heads bool) (wins []Window, used []*Map, ok bool) {
	areas, ok := set.resolve(pred, false)
	if !ok {
		return nil, nil, false
	}
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()
	wins = make([]Window, 0, len(areas))
	used = make([]*Map, 0, len(areas)*len(tailAttrs))
	for _, w := range areas {
		ms := make([]*Map, len(tailAttrs))
		for i, attr := range tailAttrs {
			// The write path replays laggards to a shared target; a cursor
			// mismatch among the used maps means replay work.
			if ms[i], ok = w.maps[attr]; !ok || ms[i].cursor != ms[0].cursor {
				return nil, nil, false
			}
		}
		used = append(used, ms...)
		cutLo, cutHi := w == areas[0] && w.loB.Less(lowerB), w == areas[len(areas)-1] && upperB.Less(w.hiB)
		if len(ms) > 0 {
			if cutLo || cutHi {
				// Boundary maps must already sit at the tape end (the
				// write path would replay this query's crack onto them).
				if ms[0].cursor != len(w.tape) {
					return nil, nil, false
				}
			} else if ms[0].cursor < w.lastUpdate {
				// Partial alignment may lag on cracks but never on updates.
				return nil, nil, false
			}
			if heads && ms[0].headDropped {
				return nil, nil, false
			}
		}
		win, ok := windowOf(ms, heads, cutLo, cutHi, lowerB, upperB)
		if !ok {
			return nil, nil, false
		}
		wins = append(wins, win)
	}
	return wins, used, true
}

// MultiSelectRO is the reorganization-free execute path of the two-phase
// protocol: it answers the query only when doing so requires no cracking,
// no pending-update merge, no map creation or area fetch, and no tape
// growth. ok is false otherwise; callers then fall back to MultiSelect under
// exclusive access. Safe for concurrent use with other read-only
// operations. The maps' Usage is bumped atomically; the head-drop idle clock
// is not advanced; everything else is left untouched.
func (s *Store) MultiSelectRO(preds []AttrPred, projs []string, disjunctive bool) (Result, bool) {
	return s.MultiSelectROInto(nil, preds, projs, disjunctive)
}

// MultiSelectROInto is MultiSelectRO writing the answer into memory the
// caller lends (Plan.Into); into may be nil, and is untouched when ok is
// false.
func (s *Store) MultiSelectROInto(into *Result, preds []AttrPred, projs []string, disjunctive bool) (Result, bool) {
	if len(preds) == 0 {
		return Result{}, false
	}
	pl, pred := s.plan(preds, projs, disjunctive)
	set := s.sets[pl.Head.Attr]
	if set == nil || !set.pend.Settled(pl.Head.Pred, disjunctive) {
		return Result{}, false
	}
	wins, used, ok := s.windowsRO(set, pred, pl.Tails, disjunctive)
	if !ok {
		return Result{}, false
	}
	// No dedup needed: windows are one per area and an area's maps are
	// keyed by distinct tail attributes, so no map repeats.
	for _, m := range used {
		s.Touch(&m.Usage)
	}
	pl.Into = into
	return pl.Finish(wins, disjunctive), true
}

// checkStorage verifies the running storage total against a full recount.
func (s *Store) checkStorage() error {
	recount := 0
	for _, set := range s.sets {
		for _, w := range set.areas {
			for _, m := range w.maps {
				recount += m.tuples()
			}
		}
	}
	if recount != s.storage {
		return fmt.Errorf("running storage total %d, recount %d", s.storage, recount)
	}
	return nil
}

// checkInvariants verifies the storage total and every map's piece
// invariants; tests call it.
func (s *Store) checkInvariants() error {
	if err := s.checkStorage(); err != nil {
		return err
	}
	for attr, set := range s.sets {
		if set.ha != nil && !set.ha.CheckPieces() {
			return fmt.Errorf("chunk map H_%s violates piece invariants", attr)
		}
		for _, w := range set.areas {
			for tattr, m := range w.maps {
				if !m.headDropped && !m.pairs.CheckPieces() {
					return fmt.Errorf("map %s/%d/%s violates piece invariants", attr, w.id, tattr)
				}
			}
		}
	}
	return nil
}
