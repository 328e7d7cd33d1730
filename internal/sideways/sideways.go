// Package sideways implements sideways cracking (Sections 3 and 4 of the
// paper): the one map store, with fully materialized cracker maps and with
// partial maps as its two presets. Selection cracking's cracker column C_A
// is S_A's key map in a full-map store (Keys).
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
// cursor replay the tape once, each entry decided on one head and applied
// to the others as followers (Tape.ReplayJoint).
//
// Partial sideways cracking (Section 4) is the same store over value ranges.
// A set divides its value domain into areas; each area has its own tape, and
// a map over one area is a chunk. Under partial maps (NewPartialStore) a set
// owns a chunk map H_A — a cracker column over (A, key) — whose spans are the
// areas: an area is fetched when the first chunk materializes from it. A
// fetched span of H_A leads its area for the area's whole life: it holds the
// area's head in the chunks' order, under an index started from the H_A
// boundaries inside it, so its cracks never cross one and H_A's index and
// estimates are unchanged. Its chunks are tails alone, without the head copy
// Section 4.1 shows is optional ("Dropping the Head Column"), so a chunk
// costs half a map. A new chunk is gathered through the span's keys at the
// span's cursor, and every tape entry of the area, crack, insert or delete,
// is decided once, on the span's head and index, and moves the span and the
// tail of every chunk of the area together (Tape.ReplayJoint). A span starts
// as a view of H_A's columns, which cannot grow or shrink, so just before
// its area's first update merges it takes columns of its own, a clone of its
// head and its keys; its index is already its own.
// Under full maps (NewStore) every set has exactly one area, spanning the
// whole domain: it needs no H_A, because its source is the base prefix in
// key order, and every bounded predicate cuts it, so it logs every crack and
// aligns to its tape end. A full map is that area's chunk, created at cursor
// 0. The full maps one query creates there form a head group: the first
// owns the head and the index, the others are tails, plain copies of their
// base columns, that follow it through every tape entry, as an area's
// chunks follow its span. A group lasts until its maps are evicted.
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
// to the set's pending updates, so nothing is lost. A map has a head column
// exactly when neither a span nor a group owner leads it: never a chunk, and
// of a head group only its owner. Evicting a group owner hands its head and
// index to the next map of its group. A span's own columns cost what a map
// of its length costs, and are released when its area is un-fetched. Room is
// made under the budget before a span takes its columns and before a
// replay's ripple inserts grow the maps. New maps and columns are fresh; an
// evicted map's columns belong to the garbage collector, unless they pass to
// its group's next owner.
package sideways

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Map is one materialized map over one area: a (head, tail) pairs table
// covering the area's value range, plus a cursor into the area's tape. Under
// full maps it is the whole map M_A,tail; under partial maps a chunk of it.
// The tail holds tuple keys in the area's key chunk, and in an area's span.
type Map struct {
	pairs  *crack.Pairs
	cursor int
	Usage         // eviction priority; touched atomically by read-only queries
	cost   int    // tuples() as last added to Store.storage (see account)
	g      *group // the head group m belongs to, nil for none

	// Where the map lives: what eviction needs to remove it, and the
	// (set attribute, area id, tail attribute) order of equal priorities.
	set      *Set
	w        *area
	tailAttr string // "" for the key chunk and the span
}

// Len returns the number of tuples currently in the map.
func (m *Map) Len() int { return len(m.pairs.Tail) }

// Cursor returns the map's tape cursor.
func (m *Map) Cursor() int { return m.cursor }

// Pairs exposes the underlying pairs (head/tail/index) read-only by
// convention. A map that is a tail alone has no head and no index of its
// own; Lead returns the pairs that position it.
func (m *Map) Pairs() *crack.Pairs { return m.pairs }

// Lead returns the pairs whose head and index position m's tail, read-only
// by convention: its area's span, the owner of its head group, or m's own
// pairs.
func (m *Map) Lead() *crack.Pairs { return m.lead().pairs }

// lead returns the map whose head and index position m's tail: its area's
// span, the owner of its head group, or m itself.
func (m *Map) lead() *Map {
	switch {
	case m.w.span != nil:
		return m.w.span
	case m.g != nil:
		return m.g.maps[0]
	}
	return m
}

// group is a head group: the full maps one query creates in a whole-domain
// area. They sit at one cursor and would hold equal heads, so only
// maps[0], the owner, keeps a head and an index; the others are tails that
// follow it through every tape entry (Tape.ReplayJoint). Evicting the owner
// hands its head and index to the next map (leave).
type group struct{ maps []*Map }

// tuples returns the map's storage cost in tuples: a map of n pairs costs
// n; a tail without head or index, a chunk or a follower in a head group,
// costs half (rounded up); a span costs nothing while it is a view of H_A's
// columns, before its area's first update.
func (m *Map) tuples() int { return m.tuplesAt(m.Len()) }

// tuplesAt is what m would cost with n pairs.
func (m *Map) tuplesAt(n int) int {
	switch {
	case m == m.w.span && m.w.lastUpdate == 0:
		return 0
	case m.pairs.Head == nil:
		return (n + 1) / 2
	}
	return n
}

// area is a fetched value range of a set: the span [lo, hi) of its source
// (H_A, or the base prefix for a whole-domain area), its own cracker tape,
// and the maps materialized from it, keyed by tail attribute ("" is the key
// chunk).
type area struct {
	id       int
	lo, hi   int
	loB, hiB crackindex.Bound
	tape     Tape
	// lastUpdate is one past the tape index of the most recent insert or
	// delete entry, 0 before the first. Partial alignment may lag on crack
	// entries but must never leave an update entry unapplied in a map it
	// returns data from.
	lastUpdate int
	maps       map[string]*Map

	// span is the area's span of H_A under partial maps, nil for a
	// whole-domain area: head A and tail keys, under an index of its own,
	// started from H_A's boundaries inside the span, so its cracks never
	// cross one and H_A's index stays true. The span leads the area: it
	// holds the area's only head and index, every tape entry is decided on
	// it, and every chunk is a tail that follows it, at its cursor. Until
	// the area's first update its columns are H_A's [lo, hi); from then on
	// clones of its own (Set.log).
	span *Map
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
// the tape end (Section 3.3: better aligned maps give better estimates)
// among those that own a head and an index, or nil when the set has none or
// keeps partial maps. A tail in a head group sits at its owner's cursor, so
// no better aligned map is passed over.
func (set *Set) MostAlignedMap() *Map {
	w := set.whole()
	if w == nil {
		return nil
	}
	var best *Map
	for attr, m := range w.maps {
		if attr != "" && m.pairs.Head != nil && (best == nil || m.cursor > best.cursor) {
			best = m
		}
	}
	return best
}

// Store owns a base relation plus all map sets built over it. The base
// columns are append-only: inserts are appended immediately (keys are dense
// positions) while the sets keep them pending; deletes are tombstoned in the
// relation and merged lazily per set.
type Store struct {
	rel     *store.Relation
	sets    map[string]*Set
	partial bool // sets keep a chunk map and fetch areas of it

	// Budget is the storage threshold T in tuples over all maps (chunk maps
	// excluded, like the cracker columns of selection cracking); 0 means
	// unlimited.
	Budget int

	// Policy is the adaptive cracking policy (crack.Policy) applied to maps
	// and chunk maps. It is frozen per set at set creation, so set Policy
	// before the first query touches an attribute.
	Policy crack.Policy

	storage     int            // running sum of Map.tuples() over all live maps
	pinnedAreas map[*area]bool // areas resolved by the in-flight query
	pinned      map[*Map]bool  // maps the in-flight query reads; empty between queries
	victims     victimHeap     // every live map, lowest eviction priority first
	life        ChunkStats
	age         int64             // eviction age: the highest priority evicted so far
	retired     crack.KernelStats // kernel work done on maps since evicted
	// evictedAccesses sums the access counts of evicted maps: a mean near
	// one says the manager evicts what it created a query ago.
	evictedAccesses int64

	// observe, when set, is told of every area fetched, map created, span
	// given columns of its own and head handed on, before any of them
	// replays a tape entry. Tests set it; it is nil otherwise.
	observe func(event, *area, *Map)

	statsMu        sync.Mutex       // guards colMin/colMax (lazily filled by read-only probes)
	colMin, colMax map[string]Value // cached base column stats for fallback estimation
}

// event names what Store.observe is told of.
type event uint8

const (
	evFetch  event = iota // an area was fetched; the map is nil
	evBorn                // a map was created at its area's source cursor
	evOwned               // a span took columns of its own at its area's first update; the map is the span
	evHanded              // a map got the head and index of its evicted group owner
)

func (s *Store) note(ev event, w *area, m *Map) {
	if s.observe != nil {
		s.observe(ev, w, m)
	}
}

// NewStore wraps rel (not copied) for sideways cracking with full maps.
func NewStore(rel *store.Relation) *Store {
	return &Store{
		rel: rel, sets: make(map[string]*Set), pinned: make(map[*Map]bool),
		colMin: make(map[string]Value), colMax: make(map[string]Value),
	}
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
}

// ChunkStats returns the lifecycle counters. Call it under the same
// synchronization as queries.
func (s *Store) ChunkStats() ChunkStats { return s.life }

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
// span and every map the store has had, key chunks and evicted maps
// included, and the cracker-index sizes over the live maps, chunk maps and
// spans, each index counted once: a tail that follows a span or a group
// owner has none. cols counts the live maps and chunk maps. It is the
// observability bridge. Call it under the same synchronization as queries
// (the stats are plain ints on the Pairs).
func (s *Store) Kernel() (ks crack.KernelStats, pieces, cols int) {
	ks = s.retired
	count := func(p *crack.Pairs) {
		ks.Add(p.Stats)
		if p.Idx != nil {
			pieces += p.Idx.Pieces()
		}
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
			if w.span != nil {
				// A span is a slice of H_A, or its copy: no column of
				// its own to count.
				ks.Add(w.span.pairs.Stats)
				pieces += w.span.pairs.Idx.Pieces()
			}
		}
	}
	return ks, pieces, cols
}

// StorageTuples returns the total map storage in tuples (a map of length n
// costs n, as in the paper's Figures 9(d)/10(c); a tail alone, a chunk or a
// group follower, counts half; a span counts its length once it has columns
// of its own). The chunk maps are excluded; see ChunkMapTuples.
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
// step that changes what a live map or span costs — creation, ripple
// updates, a head handed on, a span's own columns — ends with it, so the
// budget check never has to re-walk the maps.
func (s *Store) account(m *Map) {
	s.storage += m.tuples() - m.cost
	m.cost = m.tuples()
}

// Set returns the map set for attr, creating it on demand (see newPending
// for what a set created after updates starts from). Under partial maps the
// chunk map H_A is built from the current base state.
func (s *Store) Set(attr string) *Set {
	if set, ok := s.sets[attr]; ok {
		return set
	}
	// newPending validates attr before the set is registered: a panic on
	// an unknown attribute must not leave a half-created set behind (a
	// later read-only probe would mistake it for real cracking knowledge).
	set := &Set{st: s, attr: attr, pend: newPending(s.rel, attr), policy: s.Policy}
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
		p1, p2 = set.ha.CrackBound(lo), set.ha.CrackBound(hi)
		p2 = max(p2, p1)
	}
	w := &area{id: set.nextID, lo: p1, hi: p2, loB: lo, hiB: hi, maps: make(map[string]*Map)}
	if set.ha != nil {
		span := crack.WrapPairs(set.ha.Head[p1:p2:p2], set.ha.Tail[p1:p2:p2])
		span.Policy = set.policy
		set.ha.Idx.WalkRange(lo, hi, func(b crackindex.Bound, pos int) { span.Idx.Insert(b, pos-p1) })
		w.span = &Map{pairs: span, set: set, w: w}
	}
	set.nextID++
	at := sort.Search(len(set.areas), func(k int) bool { return lo.Less(set.areas[k].loB) })
	set.areas = slices.Insert(set.areas, at, w)
	set.st.note(evFetch, w, nil)
	return w
}

// unfetch removes area w: its tape's updates are pushed back to the set's
// pending structures so they reapply when the range is fetched again, and
// its span's own columns are released.
func (set *Set) unfetch(w *area) {
	set.pend.Restore(w.tape)
	if w.span != nil {
		set.st.storage -= w.span.cost
		set.st.retired.Add(w.span.pairs.Stats)
	}
	set.areas = slices.DeleteFunc(set.areas, func(a *area) bool { return a == w })
}

// sourceTail returns a new tail column for tailAttr over area w's source,
// in its current order. Under partial maps it is gathered from the base
// column via the keys stored in the span (Section 4.1: "we use the keys
// stored in w to get the B values from B's base column"); a whole-domain
// area's source is the base prefix in key order, so its tail is a plain
// copy. The key chunk's tail holds the keys themselves.
func (set *Set) sourceTail(w *area, tailAttr string) []Value {
	col := set.tailCol(tailAttr)
	switch {
	case w.span != nil:
		return gather(col, w.span.pairs.Tail)
	case col == nil:
		return keyRange(w.lo, w.hi)
	}
	return slices.Clone(col.Vals[w.lo:w.hi])
}

// gather returns col's values at keys, in order, or a copy of the keys when
// col is nil.
func gather(col *store.Column, keys []Value) []Value {
	if col == nil {
		return slices.Clone(keys)
	}
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = col.Vals[k]
	}
	return out
}

// ensureMap materializes (or returns) the map of area w for tailAttr at its
// area's source cursor. In an area of H_A it is a tail alone, gathered
// through the span's keys at the span's cursor, which costs half a map,
// replays nothing and follows the span. In a whole-domain area it starts
// from the base prefix at cursor 0 with a head and an index, unless g, the
// head group of the maps the in-flight query creates there, has a map
// already: then it is a tail alone, a plain copy of its base column, that
// follows the group's first. Creating a map may evict maps the in-flight
// query has not pinned.
func (set *Set) ensureMap(w *area, tailAttr string, g *group) *Map {
	if m, ok := w.maps[tailAttr]; ok {
		return m
	}
	st := set.st
	m := &Map{set: set, w: w, tailAttr: tailAttr}
	switch {
	case w.span != nil:
		st.ensureBudget((w.span.Len() + 1) / 2)
		m.pairs, m.cursor = &crack.Pairs{Tail: set.sourceTail(w, tailAttr)}, w.span.cursor
	case g != nil && len(g.maps) > 0:
		st.ensureBudget((w.hi - w.lo + 1) / 2)
		m.pairs, m.g = &crack.Pairs{Tail: set.sourceTail(w, tailAttr)}, g
		g.maps[0].g, g.maps = g, append(g.maps, m) // the owner is pinned by the query that creates the group
	default:
		st.ensureBudget(w.hi - w.lo)
		m.pairs = crack.WrapPairs(slices.Clone(set.pend.head.Vals[w.lo:w.hi]), set.sourceTail(w, tailAttr))
		if g != nil {
			g.maps = append(g.maps, m)
		}
	}
	m.pairs.Policy = set.policy
	w.maps[tailAttr] = m
	st.account(m)
	heap.Push(&st.victims, victimKey{m.Priority(), m})
	st.life.Created++
	st.life.TuplesCreated += uint64(m.Len())
	st.note(evBorn, w, m)
	return m
}

// leave takes m out of its head group. An owner hands its head and index
// to the next map of the group, without copying; a group left with one map
// dissolves.
func (s *Store) leave(m *Map) {
	g := m.g
	i := slices.Index(g.maps, m)
	g.maps = slices.Delete(g.maps, i, i+1)
	m.g = nil
	if i == 0 {
		heir := g.maps[0]
		heir.pairs.Head, heir.pairs.Idx = m.pairs.Head, m.pairs.Idx
		s.account(heir)
		s.note(evHanded, heir.w, heir)
	}
	if len(g.maps) == 1 {
		g.maps[0].g = nil
	}
}

// tailCol returns the base column of tail attribute attr, nil for a tail
// of tuple keys ("").
func (set *Set) tailCol(attr string) *store.Column {
	if attr == "" {
		return nil
	}
	return set.st.rel.MustColumn(attr)
}

// replay aligns the maps ms of area w to tape position end. Each map
// brings its lead (Map.lead) and every map that lead leads: in an area of
// H_A the span and every chunk of the area, listed or not; in a
// whole-domain area its head group, owner first. Room for the tuples their
// ripple inserts add is made first, and evicts no map the query pinned.
// Then they replay together, each tape entry decided once on a lead's head
// and index (Tape.ReplayJoint), and each is accounted for.
func (set *Set) replay(w *area, end int, ms ...*Map) {
	all, grow := joint(ms), 0
	for _, m := range all {
		grow += m.tuplesAt(m.Len()+w.tape.inserted(m.cursor, end)) - m.cost
	}
	if grow > 0 {
		set.st.ensureBudget(grow)
		all = joint(ms) // again: making room may have evicted a follower
	}
	var members []Member
	for _, m := range all {
		if m.cursor < end {
			members = append(members, Member{Pairs: m.pairs, Cursor: &m.cursor, Tail: set.tailCol(m.tailAttr)})
		}
	}
	w.tape.ReplayJoint(members, end, set.pend.head)
	for _, m := range all {
		set.st.account(m)
	}
}

// joint lists the maps a replay of ms moves: the lead of each and every map
// that lead leads (a span's every chunk, a group owner's tails), each once,
// every lead before the maps it leads.
func joint(ms []*Map) []*Map {
	var out []*Map
	for _, m := range ms {
		switch lead := m.lead(); {
		case slices.Contains(out, lead):
		case lead == lead.w.span:
			out = append(out, lead)
			for _, c := range lead.w.maps {
				out = append(out, c)
			}
		case lead.g != nil:
			out = append(out, lead.g.maps...)
		default:
			out = append(out, lead)
		}
	}
	return out
}

// ensureBudget evicts the unpinned maps of lowest Usage priority until size
// more tuples fit in the budget; maps of equal priority go in (set attribute,
// area id, tail attribute) order, so one query stream always evicts the same
// maps. Dropping an area's last map un-fetches the area.
func (s *Store) ensureBudget(size int) {
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
		if s.pinned[k.m] {
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

// evict drops map m, already off the victim heap.
func (s *Store) evict(m *Map) {
	delete(m.w.maps, m.tailAttr)
	s.storage -= m.cost
	s.retire(&m.Usage, m.pairs.Stats)
	s.life.Evicted++
	s.evictedAccesses += m.Accesses()
	if m.g != nil {
		s.leave(m)
	}
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
// carries its leader's head column (Map.Lead).
//
// The maps the query creates in a whole-domain area form one head group.
// Every existing map the query reads is pinned before any map is created, so
// making room for one never evicts another this query is about to read.
func (set *Set) Query(pred store.Pred, tailAttrs []string, heads bool) []Window {
	st := set.st
	areas, _ := set.resolve(pred, true)
	if len(areas) == 0 {
		return nil
	}
	st.pinnedAreas = make(map[*area]bool, len(areas))
	for _, w := range areas {
		st.pinnedAreas[w] = true
		for _, attr := range tailAttrs {
			if m, ok := w.maps[attr]; ok {
				st.pinned[m] = true
			}
		}
	}
	defer func() { st.pinnedAreas = nil; clear(st.pinned) }()
	used := make([][]*Map, len(areas))
	for i, w := range areas {
		var g *group
		if w.span == nil {
			g = new(group)
		}
		used[i] = make([]*Map, len(tailAttrs))
		for j, attr := range tailAttrs {
			used[i][j] = set.ensureMap(w, attr, g)
			st.pinned[used[i][j]] = true
		}
	}

	// Merge pending insertions and deletions into the tapes of the areas
	// they fall in.
	ins := set.perArea(areas, set.pend.TakeInserts(pred))
	del := set.perArea(areas, set.pend.TakeDeletes(pred))
	for i, w := range areas {
		if keys := ins[w]; len(keys) > 0 {
			set.log(w, entry{kind: entryInsert, keys: keys})
		}
		if keys := del[w]; len(keys) > 0 {
			set.mergeDeletes(w, pred, keys, used[i])
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
			st.touch(&m.Usage)
		}
		var ok bool
		if wins[i], ok = windowOf(w, used[i], heads, cutLo, cutHi, lowerB, upperB); !ok {
			panic(fmt.Sprintf("sideways: missing boundary after alignment for %v", pred))
		}
	}
	return wins
}

// mergeDeletes logs the deletion of keys, all in area w, in w's tape (Section
// 3.5). The deleted tuples are found by value in the maps ms the query uses,
// aligned to the tape end first, reading only the pieces pred falls into: a
// deleted tuple is the one position whose head and tails equal its row. When
// some deleted row equals a second tuple on those columns, the area's key
// chunk finds them by key instead.
func (set *Set) mergeDeletes(w *area, pred store.Pred, keys []int, ms []*Map) {
	positions, ok := set.locate(w, pred, keys, ms)
	if !ok {
		kc := set.ensureMap(w, "", nil)
		set.st.pinned[kc] = true
		positions, _ = set.locate(w, pred, keys, []*Map{kc})
		defer set.replay(w, len(w.tape), kc)
	}
	set.log(w, entry{kind: entryDelete, keys: keys, positions: positions})
}

// log appends update entry e, an insert or a delete, to w's tape. A span
// about to meet its area's first update takes columns of its own first: a
// view of H_A's columns cannot grow or shrink, and H_A's slice must stay
// intact, since an un-fetched area is fetched again from it with its
// updates pending once more. Room is made for the clone under the budget.
func (set *Set) log(w *area, e entry) {
	if sp := w.span; sp != nil && w.lastUpdate == 0 {
		set.st.ensureBudget(sp.Len())
		sp.pairs.Head, sp.pairs.Tail = slices.Clone(sp.pairs.Head), slices.Clone(sp.pairs.Tail)
		set.st.note(evOwned, w, sp)
	}
	w.tape = append(w.tape, e)
	w.lastUpdate = len(w.tape)
	if w.span != nil {
		set.st.account(w.span)
	}
}

// locate aligns the maps ms of area w to the tape end and finds the tuples of
// keys among them by value: the head that leads ms[0] and every map's tail
// against each key's row (crack.Pairs.Locate). On the key chunk alone that
// is a search by key. unique is false when ms is empty or a row matches more
// than once.
func (set *Set) locate(w *area, pred store.Pred, keys []int, ms []*Map) (positions []int, unique bool) {
	if len(ms) == 0 {
		return nil, false
	}
	set.replay(w, len(w.tape), ms...)
	cols := make([]*store.Column, len(ms))
	tails := make([][]Value, len(ms))
	for i, m := range ms {
		cols[i], tails[i] = set.tailCol(m.tailAttr), m.pairs.Tail
	}
	return ms[0].Lead().Locate(pred, set.pend.Rows(keys, cols), tails...)
}

// windowOf returns the window over the aligned maps ms of area w, with the
// head when heads is set: all of it, cut at lowerB and/or upperB where the
// area is a boundary area on that side. Head and cuts are those that lead
// ms[0] (Map.Lead): its area's span, its group owner's, or its own. ok is
// false when a cut is not a boundary of that index yet.
func windowOf(w *area, ms []*Map, heads, cutLo, cutHi bool, lowerB, upperB crackindex.Bound) (win Window, ok bool) {
	win.Tails = make([][]Value, len(ms))
	for i, m := range ms {
		win.Tails[i] = m.pairs.Tail
	}
	if len(ms) == 0 {
		return win, true
	}
	lead := ms[0].Lead()
	if heads {
		win.Head = lead.Head
	}
	win.Hi = ms[0].Len()
	if cutLo {
		if win.Lo, ok = lead.Idx.Lookup(lowerB); !ok {
			return win, false
		}
	}
	if cutHi {
		if win.Hi, ok = lead.Idx.Lookup(upperB); !ok {
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
	return s.uniformEstimate(attr, pred)
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
// would reorganize: a gap needs fetching, a map is missing or misaligned, or
// a boundary map lacks the predicate's physical bounds.
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
		}
		win, ok := windowOf(w, ms, heads, cutLo, cutHi, lowerB, upperB)
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
// operations. The maps' Usage is bumped atomically; everything else is left
// untouched.
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
		s.touch(&m.Usage)
	}
	pl.Into = into
	return pl.Finish(wins, disjunctive), true
}

// Keys is operator crackers.select(attr, pred) of selection cracking
// (Section 2.2) over S_attr's key map, the cracker column C_attr of (value,
// key) pairs: it merges the pending updates pred touches, cracks the key map
// and returns the keys of the qualifying tuples, unordered. The keys are a
// view into the key map, valid until the next query of the store.
func (s *Store) Keys(attr string, pred store.Pred) []Value {
	_, keys := keysOf(s.Set(attr).Query(pred, []string{""}, true))
	return keys
}

// KeysRO is Keys without reorganizing anything. ok is false exactly when
// Keys would: S_attr or its key map does not exist yet, a pending update
// falls in pred's range, or the key map lacks pred's bounds. Safe for concurrent use with other read-only operations.
func (s *Store) KeysRO(attr string, pred store.Pred) ([]Value, bool) {
	set := s.sets[attr]
	if set == nil || !set.pend.Settled(pred, false) {
		return nil, false
	}
	wins, used, ok := s.windowsRO(set, pred, []string{""}, true)
	if !ok {
		return nil, false
	}
	for _, m := range used {
		s.touch(&m.Usage)
	}
	_, keys := keysOf(wins)
	return keys, true
}

// KeyMap returns S_attr's key map in a full-map store, aligned to its tape
// end, and the set's pending insertions (keys in arrival order) and
// deletions; km is nil when S_attr has no key map. All three are live
// state, which the next query or update changes: the caller copies what it
// keeps.
func (s *Store) KeyMap(attr string) (km *crack.Pairs, ins []int, del map[int]bool) {
	if set := s.sets[attr]; set != nil {
		if w := set.whole(); w != nil && w.maps[""] != nil {
			set.replay(w, len(w.tape), w.maps[""])
			return w.maps[""].pairs, set.pend.ins, set.pend.del
		}
	}
	return nil, nil, nil
}

// checkStorage verifies the running storage total against a full recount.
func (s *Store) checkStorage() error {
	recount := 0
	for _, set := range s.sets {
		for _, w := range set.areas {
			if w.span != nil {
				recount += w.span.tuples()
			}
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

// checkInvariants verifies the storage total, every index's piece
// invariants, that each span holds the head attribute's values of its keys,
// and what positions each map (checkLead); tests call it.
func (s *Store) checkInvariants() error {
	if err := s.checkStorage(); err != nil {
		return err
	}
	for attr, set := range s.sets {
		if set.ha != nil && !set.ha.CheckPieces() {
			return fmt.Errorf("chunk map H_%s violates piece invariants", attr)
		}
		for _, w := range set.areas {
			if sp := w.span; sp != nil && (!slices.Equal(sp.pairs.Head, gather(set.pend.head, sp.pairs.Tail)) || !sp.pairs.CheckPieces()) {
				return fmt.Errorf("the span of area %s/%d is not its keys' head values in pieces", attr, w.id)
			}
			for tattr, m := range w.maps {
				if err := checkLead(w, m); err != nil {
					return fmt.Errorf("map %s/%d/%s %v", attr, w.id, tattr, err)
				}
			}
		}
	}
	return nil
}

// checkLead verifies what positions map m of area w: its area's span, whose
// keys m's tail must be gathered through at the span's cursor, the owner of
// a head group at m's cursor and length, or m's own head and index, which
// must satisfy the piece invariants.
func checkLead(w *area, m *Map) error {
	switch g := m.g; {
	case w.span != nil:
		switch sp := w.span; {
		case m.pairs.Head != nil || m.pairs.Idx != nil || m.g != nil:
			return errors.New("of an area of H_A has a head, an index or a group")
		case m.cursor != sp.cursor || !slices.Equal(m.pairs.Tail, gather(m.set.tailCol(m.tailAttr), sp.pairs.Tail)):
			return fmt.Errorf("at cursor %d is not its column gathered through its span's keys at cursor %d", m.cursor, sp.cursor)
		}
		return nil
	case g != nil:
		owner := g.maps[0]
		switch {
		case len(g.maps) < 2 || !slices.Contains(g.maps, m):
			return errors.New("is in a head group that should not exist")
		case w.maps[owner.tailAttr] != owner || owner.pairs.Head == nil:
			return errors.New("has a group owner that is gone or has no head")
		case m != owner && (m.pairs.Head != nil || m.pairs.Idx != nil):
			return errors.New("follows a group owner but keeps a head")
		case m.cursor != owner.cursor || m.Len() != owner.Len():
			return fmt.Errorf("at cursor %d with %d tuples, its group owner at %d with %d", m.cursor, m.Len(), owner.cursor, owner.Len())
		}
		if m != owner {
			return nil
		}
	case m.pairs.Head == nil:
		return errors.New("has no head and nothing leads it")
	}
	if !m.pairs.CheckPieces() {
		return errors.New("violates piece invariants")
	}
	return nil
}
