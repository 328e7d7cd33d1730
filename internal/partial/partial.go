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
// are aligned by replay, exactly like full maps but at chunk granularity.
//
// The storage manager drops least-frequently-accessed chunks when a budget
// is exceeded; dropping the last chunk of an area un-fetches it (its tape's
// pending effects are pushed back to the set's pending updates, so nothing
// is lost). Heavily cracked or idle chunks can drop their head column; the
// head is recovered deterministically from the frozen H_A area by replaying
// the tape prefix, or copied from a same-cursor sibling chunk (Section 4.1,
// "Dropping the Head Column").
package partial

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

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

type entryKind uint8

const (
	entryCrack entryKind = iota
	entryInsert
	entryDelete
)

type entry struct {
	kind      entryKind
	pred      store.Pred
	keys      []int // insert: tuple keys; delete: tuple keys (for un-fetch)
	positions []int // delete: physical positions at this tape point
}

// chunk is one materialized piece of a partial map: a (head, tail) pairs
// table covering its area's value range, plus a cursor into the area tape.
type chunk struct {
	p      *crack.Pairs
	cursor int
	access int64 // bumped atomically by the read-only path, plainly under
	// exclusive access (LFU storage management)
	headDropped bool
	lastCrack   int // store query counter at the last replayed crack entry
	cost        int // tuples() as last added to Store.storage (see account)
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
	tape     []entry
	// lastUpdate is one past the tape index of the most recent insert or
	// delete entry. Partial alignment may lag on crack entries but must
	// never leave an update entry unapplied in a chunk it returns data
	// from.
	lastUpdate int
	chunks     map[string]*chunk
	access     int64
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

	pendIns []int
	pendDel map[int]bool
	nextID  int
}

// Attr returns the head attribute name.
func (set *Set) Attr() string { return set.attr }

// NumAreas returns the number of fetched areas (for tests/experiments).
func (set *Set) NumAreas() int { return len(set.areas) }

// Store owns a base relation and its partial map sets.
type Store struct {
	rel        *store.Relation
	tombstones map[int]bool
	sets       map[string]*Set

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

	queries        int
	storage        int            // running sum of chunk.tuples() over all live chunks
	pinnedAreas    map[*area]bool // areas resolved by the in-flight query
	statsMu        sync.Mutex     // guards colMin/colMax (lazily filled by read-only probes)
	colMin, colMax map[string]Value
}

// NewStore wraps rel (not copied) for partial sideways cracking.
func NewStore(rel *store.Relation) *Store {
	return &Store{
		rel:        rel,
		tombstones: make(map[int]bool),
		sets:       make(map[string]*Set),
		colMin:     make(map[string]Value),
		colMax:     make(map[string]Value),
	}
}

// Relation returns the underlying base relation.
func (s *Store) Relation() *store.Relation { return s.rel }

// Kernel aggregates the kernel partition counters and cracker-index
// sizes over every chunk map and every materialized chunk: the
// observability bridge. Call it under the same synchronization as
// queries (the stats are plain ints on the Pairs).
func (s *Store) Kernel() (ks crack.KernelStats, pieces, cols int) {
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

// dropHead drops chunk c's head column, keeping only the tail.
func (s *Store) dropHead(c *chunk) {
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

// Insert appends a tuple to the base relation and registers it as pending
// with every existing set. Returns the new tuple's key.
func (s *Store) Insert(vals ...Value) int {
	s.rel.AppendRow(vals...)
	key := s.rel.NumRows() - 1
	for _, set := range s.sets {
		set.pendIns = append(set.pendIns, key)
	}
	return key
}

// Delete tombstones the tuple with the given key.
func (s *Store) Delete(key int) {
	if s.tombstones[key] {
		return
	}
	s.tombstones[key] = true
	for _, set := range s.sets {
		set.noteDelete(key)
	}
}

func (set *Set) noteDelete(key int) {
	for i, k := range set.pendIns {
		if k == key {
			set.pendIns = append(set.pendIns[:i], set.pendIns[i+1:]...)
			return
		}
	}
	set.pendDel[key] = true
}

// Set returns the partial map set for attr, creating H_A on demand from the
// current base state (inserts included; live tombstones become pending).
func (s *Store) Set(attr string) *Set {
	if set, ok := s.sets[attr]; ok {
		return set
	}
	col := s.rel.MustColumn(attr)
	n := col.Len()
	head := make([]Value, n)
	copy(head, col.Vals)
	tail := make([]Value, n)
	for i := range tail {
		tail[i] = Value(i)
	}
	set := &Set{
		st:      s,
		attr:    attr,
		ha:      crack.WrapPairs(head, tail),
		pendDel: make(map[int]bool),
	}
	// ha.Policy doubles as the set's frozen policy snapshot: chunks and
	// head-recovery replays copy it, so a later Store.Policy change cannot
	// misalign an existing set.
	set.ha.Policy = s.Policy
	for k := range s.tombstones {
		set.pendDel[k] = true
	}
	s.sets[attr] = set
	return set
}

// SetIfExists returns the set for attr if materialized.
func (s *Store) SetIfExists(attr string) *Set { return s.sets[attr] }

var (
	minBound = crackindex.Bound{V: math.MinInt64, Incl: true}  // before all values
	maxBound = crackindex.Bound{V: math.MaxInt64, Incl: false} // after all values
)

// FullRange matches every tuple; used to resolve the whole domain for
// disjunctive queries.
var FullRange = store.Pred{Lo: math.MinInt64, Hi: math.MaxInt64, LoIncl: true, HiIncl: true}

// resolve returns, in value order, the fetched areas that jointly cover
// pred's value range, fetching gap areas from H_A as needed (Section 4.1,
// "Creating Chunks"). Newly fetched areas cover exactly the needed range,
// so only pre-existing boundary areas may require chunk cracking.
func (set *Set) resolve(pred store.Pred) []*area {
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()
	if !lowerB.Less(upperB) {
		return nil
	}
	var out []*area
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
	return out
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
	for _, e := range w.tape {
		switch e.kind {
		case entryInsert:
			set.pendIns = append(set.pendIns, e.keys...)
		case entryDelete:
			for _, k := range e.keys {
				set.pendDel[k] = true
			}
		}
	}
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
	size := w.hi - w.lo
	set.st.ensureBudget(size, pinned)
	head := make([]Value, size)
	copy(head, set.ha.Head[w.lo:w.hi])
	tail := make([]Value, size)
	if tailAttr == "" {
		copy(tail, set.ha.Tail[w.lo:w.hi])
	} else {
		col := set.st.rel.MustColumn(tailAttr)
		for i := 0; i < size; i++ {
			tail[i] = col.Vals[int(set.ha.Tail[w.lo+i])]
		}
	}
	c := &chunk{p: crack.WrapPairs(head, tail), lastCrack: set.st.queries}
	c.p.Policy = set.ha.Policy
	w.chunks[tailAttr] = c
	set.st.account(c)
	return c
}

// replay aligns chunk c of area w to tape position end.
func (set *Set) replay(w *area, c *chunk, end int, tailAttr string) {
	if c.cursor >= end {
		return
	}
	headCol := set.st.rel.MustColumn(set.attr)
	var tailCol *store.Column
	if tailAttr != "" {
		tailCol = set.st.rel.MustColumn(tailAttr)
	}
	for ; c.cursor < end; c.cursor++ {
		e := w.tape[c.cursor]
		// Head-dropped chunks replay lazily: a crack entry whose bounds
		// are already boundaries is a physical no-op and can be skipped
		// (Section 4.1: "if b matches one of the past cracks, cracking and
		// thus full alignment of c is not necessary"). Any entry that
		// would physically move tuples first recovers the head, since
		// crack, ripple-insert and delete reorganize head and tail
		// together.
		if c.headDropped {
			if e.kind == entryCrack && boundsKnown(c, e.pred) {
				continue
			}
			set.recoverHead(w, c)
		}
		switch e.kind {
		case entryCrack:
			c.p.CrackRange(e.pred)
			c.lastCrack = set.st.queries
		case entryInsert:
			c.p.RippleInsertKeys(e.keys, headCol, tailCol)
		case entryDelete:
			c.p.RippleDeleteBatch(e.positions)
		}
	}
	set.st.account(c)
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
	defer set.st.account(c)
	for _, sib := range w.chunks {
		if sib != c && !sib.headDropped && sib.cursor == c.cursor {
			head := make([]Value, len(sib.p.Head))
			copy(head, sib.p.Head)
			c.p.Head = head
			c.headDropped = false
			return
		}
	}
	size := w.hi - w.lo
	head := make([]Value, size)
	copy(head, set.ha.Head[w.lo:w.hi])
	dummy := make([]Value, size)
	tmp := crack.WrapPairs(head, dummy)
	// Replay under the set's policy: the rebuilt head must make the same
	// pivot decisions the chunk originally did to pair with its tail.
	tmp.Policy = set.ha.Policy
	headCol := set.st.rel.MustColumn(set.attr)
	for i := 0; i < c.cursor; i++ {
		e := w.tape[i]
		switch e.kind {
		case entryCrack:
			tmp.CrackRange(e.pred)
		case entryInsert:
			vals := make([]Value, len(e.keys))
			for i, k := range e.keys {
				vals[i] = headCol.Vals[k]
			}
			tmp.RippleInsertBatch(vals, make([]Value, len(e.keys)))
		case entryDelete:
			tmp.RippleDeleteBatch(e.positions)
		}
	}
	c.p.Head = tmp.Head
	c.headDropped = false
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
func (s *Store) maybeDropHeads(set *Set, used []*chunk, areas []*area) {
	if s.CachedPieceTuples <= 0 && s.HeadDropIdleQueries <= 0 {
		return
	}
	for i, c := range used {
		if c.headDropped {
			continue
		}
		if s.CachedPieceTuples > 0 && maxPiece(c, areas[i]) <= s.CachedPieceTuples {
			s.dropHead(c)
			continue
		}
		if s.HeadDropIdleQueries > 0 && s.queries-c.lastCrack >= s.HeadDropIdleQueries {
			s.dropHead(c)
		}
	}
}

// maxPiece returns the largest piece size of chunk c.
func maxPiece(c *chunk, _ *area) int {
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

// ensureBudget drops least-frequently-accessed unpinned chunks until size
// more tuples fit in the budget. Dropping an area's last chunk un-fetches
// the area. Equally rarely used chunks go in (set attribute, area id, tail
// attribute) order, so one query stream always evicts the same chunks
// whatever order the maps iterate in.
func (s *Store) ensureBudget(size int, pinned map[*chunk]bool) {
	if s.Budget <= 0 {
		return
	}
	type cand struct {
		set  *Set
		w    *area
		attr string
		c    *chunk
	}
	before := func(a, b cand) bool {
		if a.c.access != b.c.access {
			return a.c.access < b.c.access
		}
		if a.set.attr != b.set.attr {
			return a.set.attr < b.set.attr
		}
		if a.w.id != b.w.id {
			return a.w.id < b.w.id
		}
		return a.attr < b.attr
	}
	for s.storage+size > s.Budget {
		var victim cand
		for _, set := range s.sets {
			for _, w := range set.areas {
				for attr, c := range w.chunks {
					if pinned[c] {
						continue
					}
					if cd := (cand{set, w, attr, c}); victim.c == nil || before(cd, victim) {
						victim = cd
					}
				}
			}
		}
		if victim.c == nil {
			return // everything pinned; allow exceeding the budget
		}
		delete(victim.w.chunks, victim.attr)
		s.storage -= victim.c.cost
		// Never un-fetch an area the in-flight query resolved: pushing its
		// tape updates back to pending while the query holds the area
		// object would double-apply them. An empty fetched area is valid.
		if len(victim.w.chunks) == 0 && !s.pinnedAreas[victim.w] {
			victim.set.unfetch(victim.w)
		}
	}
}

// Region is one chunk-wise result fragment: the aligned chunks of one area
// (parallel to the query's tail attributes) and the qualifying position
// range [Lo, Hi) within them.
type Region struct {
	Chunks []*chunk
	Lo, Hi int
}

// Tail returns the tail values of the i-th requested attribute within the
// region.
func (r Region) Tail(i int) []Value { return r.Chunks[i].p.Tail[r.Lo:r.Hi] }

// Query is the set-level partial sideways.select: resolve/fetch the areas
// covering pred, merge relevant pending updates into the area tapes, crack
// boundary chunks, partially align covered chunks, and return one Region
// per area in value order (chunk-wise processing, Section 4.1).
func (set *Set) Query(pred store.Pred, tailAttrs []string) []Region {
	set.st.queries++
	areas := set.resolve(pred)
	if len(areas) == 0 {
		return nil
	}
	set.st.pinnedAreas = make(map[*area]bool, len(areas))
	for _, w := range areas {
		set.st.pinnedAreas[w] = true
	}
	defer func() { set.st.pinnedAreas = nil }()
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()

	// Merge pending insertions into the tapes of the areas they belong to.
	if len(set.pendIns) > 0 {
		headCol := set.st.rel.MustColumn(set.attr)
		perArea := make(map[*area][]int)
		rest := set.pendIns[:0]
		for _, k := range set.pendIns {
			if !pred.Matches(headCol.Vals[k]) {
				rest = append(rest, k)
				continue
			}
			w := findArea(areas, crackindex.Bound{V: headCol.Vals[k], Incl: true})
			if w == nil {
				rest = append(rest, k) // defensive; should not happen
				continue
			}
			perArea[w] = append(perArea[w], k)
		}
		set.pendIns = rest
		for _, w := range areas {
			if keys := perArea[w]; len(keys) > 0 {
				w.tape = append(w.tape, entry{kind: entryInsert, keys: keys})
				w.lastUpdate = len(w.tape)
			}
		}
	}

	// Merge pending deletions via each area's key chunk.
	if len(set.pendDel) > 0 {
		headCol := set.st.rel.MustColumn(set.attr)
		var matched []int
		for k := range set.pendDel {
			if pred.Matches(headCol.Vals[k]) {
				matched = append(matched, k)
			}
		}
		sort.Ints(matched)
		perArea := make(map[*area][]int)
		for _, k := range matched {
			w := findArea(areas, crackindex.Bound{V: headCol.Vals[k], Incl: true})
			if w == nil {
				continue
			}
			perArea[w] = append(perArea[w], k)
			delete(set.pendDel, k)
		}
		for _, w := range areas {
			keys := perArea[w]
			if len(keys) == 0 {
				continue
			}
			kc := set.ensureChunk(w, "", nil)
			set.replay(w, kc, len(w.tape), "")
			if kc.headDropped {
				// Replay recovers a dropped head only for entries that move
				// tuples; locating keys reads it, as the delete entry's own
				// replay below would.
				set.recoverHead(w, kc)
			}
			positions := kc.p.LocateKeys(pred, keys)
			w.tape = append(w.tape, entry{kind: entryDelete, keys: keys, positions: positions})
			w.lastUpdate = len(w.tape)
			set.replay(w, kc, len(w.tape), "")
		}
	}

	// Append crack entries to boundary areas only (Section 4.1, partial
	// alignment: "only the boundary chunks might need to be cracked").
	first, last := areas[0], areas[len(areas)-1]
	if first.loB.Less(lowerB) {
		first.tape = append(first.tape, entry{kind: entryCrack, pred: pred})
	}
	if upperB.Less(last.hiB) && (last != first || !first.loB.Less(lowerB)) {
		last.tape = append(last.tape, entry{kind: entryCrack, pred: pred})
	}

	// Align chunks and build regions.
	regions := make([]Region, 0, len(areas))
	pinned := make(map[*chunk]bool)
	var usedChunks []*chunk
	var usedAreas []*area
	for _, w := range areas {
		w.access++
		chunks := make([]*chunk, len(tailAttrs))
		// Partial alignment (Section 4.1): boundary areas align to the
		// tape end (they must replay this query's crack); covered areas
		// align only to the maximum cursor among the chunks this query
		// uses — but never short of the last update entry, which affects
		// chunk contents rather than just their internal order.
		target := len(w.tape)
		if !boundaryArea(w, first, last, lowerB, upperB) && !set.st.ForceFullAlignment {
			target = w.lastUpdate
			for _, attr := range tailAttrs {
				if c, ok := w.chunks[attr]; ok && c.cursor > target {
					target = c.cursor
				}
			}
		}
		for i, attr := range tailAttrs {
			c := set.ensureChunk(w, attr, pinned)
			pinned[c] = true
			set.replay(w, c, target, attr)
			c.access++
			chunks[i] = c
			usedChunks = append(usedChunks, c)
			usedAreas = append(usedAreas, w)
		}
		lo, hi := 0, 0
		if len(chunks) > 0 {
			hi = chunks[0].Len()
			if first == w && first.loB.Less(lowerB) {
				if p, ok := chunks[0].p.Idx.Lookup(lowerB); ok {
					lo = p
				}
			}
			if last == w && upperB.Less(last.hiB) {
				if p, ok := chunks[0].p.Idx.Lookup(upperB); ok {
					hi = p
				}
			}
			if hi < lo {
				hi = lo
			}
		}
		regions = append(regions, Region{Chunks: chunks, Lo: lo, Hi: hi})
	}
	set.st.maybeDropHeads(set, usedChunks, usedAreas)
	return regions
}

// boundaryArea reports whether w is a boundary area of the current query.
func boundaryArea(w, first, last *area, lowerB, upperB crackindex.Bound) bool {
	return (w == first && first.loB.Less(lowerB)) || (w == last && upperB.Less(last.hiB))
}

func findArea(areas []*area, b crackindex.Bound) *area {
	for _, w := range areas {
		if w.covers(b) {
			return w
		}
	}
	return nil
}

// EstimateSelectivity estimates |pred(attr)| using the chunk map's cracker
// index, falling back to uniform base-column statistics.
func (s *Store) EstimateSelectivity(attr string, pred store.Pred) int {
	if set := s.sets[attr]; set != nil {
		_, _, est := set.ha.Idx.Estimate(pred.LowerBound(), pred.UpperBound(), set.ha.Len())
		return est
	}
	lo, hi := s.colStats(attr)
	n := s.rel.NumRows()
	if hi <= lo {
		return n
	}
	clo, chi := pred.Lo, pred.Hi
	if clo < lo {
		clo = lo
	}
	if chi > hi {
		chi = hi
	}
	if chi < clo {
		return 0
	}
	return int(float64(n) * float64(chi-clo) / float64(hi-lo))
}

func (s *Store) colStats(attr string) (lo, hi Value) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if l, ok := s.colMin[attr]; ok {
		return l, s.colMax[attr]
	}
	col := s.rel.MustColumn(attr)
	l, _ := store.Min(col.Vals)
	h, _ := store.Max(col.Vals)
	s.colMin[attr], s.colMax[attr] = l, h
	return l, h
}

// SelectProject evaluates select projs from R where pred(selAttr) with
// chunk-wise processing.
func (s *Store) SelectProject(selAttr string, pred store.Pred, projs []string) Result {
	set := s.Set(selAttr)
	regions := set.Query(pred, projs)
	res := Result{Cols: make(map[string][]Value, len(projs))}
	for _, r := range regions {
		res.N += r.Hi - r.Lo
	}
	for i, attr := range projs {
		out := make([]Value, 0, res.N)
		for _, r := range regions {
			out = append(out, r.Tail(i)...)
		}
		res.Cols[attr] = out
	}
	return res
}

// choosePred picks the plan's head predicate: the most (conjunctive) or
// least (disjunctive) selective one per the chunk-map histograms. Read-only.
func (s *Store) choosePred(preds []AttrPred, disjunctive bool) int {
	chosen := 0
	if len(preds) == 1 {
		return 0
	}
	bestEst := s.EstimateSelectivity(preds[0].Attr, preds[0].Pred)
	for i := 1; i < len(preds); i++ {
		est := s.EstimateSelectivity(preds[i].Attr, preds[i].Pred)
		better := est < bestEst
		if disjunctive {
			better = est > bestEst
		}
		if better {
			chosen, bestEst = i, est
		}
	}
	return chosen
}

// multiPlan lays out a multi-selection plan: head and secondary predicates
// plus the tail-attribute slots (others first, then projections, then the
// head attribute itself for disjunctions, which must evaluate the head
// predicate outside its cracked region).
func (s *Store) multiPlan(preds []AttrPred, projs []string, disjunctive bool) (head AttrPred, others []AttrPred, tailAttrs []string, tailOf map[string]int) {
	chosen := s.choosePred(preds, disjunctive)
	others = make([]AttrPred, 0, len(preds)-1)
	for i, ap := range preds {
		if i != chosen {
			others = append(others, ap)
		}
	}
	head = preds[chosen]
	tailAttrs = make([]string, 0, len(others)+len(projs)+1)
	tailOf = make(map[string]int)
	add := func(attr string) {
		if _, ok := tailOf[attr]; !ok {
			tailOf[attr] = len(tailAttrs)
			tailAttrs = append(tailAttrs, attr)
		}
	}
	for _, ap := range others {
		add(ap.Attr)
	}
	for _, attr := range projs {
		add(attr)
	}
	if disjunctive {
		add(head.Attr)
	}
	return head, others, tailAttrs, tailOf
}

// MultiSelect evaluates a multi-selection query (Section 3.3 semantics on
// partial maps, processed chunk by chunk).
func (s *Store) MultiSelect(preds []AttrPred, projs []string, disjunctive bool) Result {
	if len(preds) == 0 {
		panic("partial: MultiSelect requires at least one predicate")
	}
	head, others, tailAttrs, tailOf := s.multiPlan(preds, projs, disjunctive)
	set := s.Set(head.Attr)

	if disjunctive {
		// The whole domain is relevant.
		regions := set.Query(FullRange, tailAttrs)
		return disjunctiveRegions(regions, tailOf, head, others, projs)
	}
	regions := set.Query(head.Pred, tailAttrs)
	return conjunctiveRegions(regions, tailOf, others, projs)
}

// disjunctiveRegions finishes a disjunctive plan: per region, mark tuples
// matching any predicate and reconstruct the projections. A pure read over
// the aligned chunks, shared by the write path and the read-only path.
func disjunctiveRegions(regions []Region, tailOf map[string]int, head AttrPred, others []AttrPred, projs []string) Result {
	res := Result{Cols: make(map[string][]Value, len(projs))}
	headIdx := tailOf[head.Attr]
	for _, r := range regions {
		n := r.Chunks[0].Len()
		bv := bitvec.New(n)
		headTail := r.Chunks[headIdx].p.Tail
		for i := 0; i < n; i++ {
			if head.Pred.Matches(headTail[i]) {
				bv.Set(i)
				continue
			}
			for _, ap := range others {
				if ap.Pred.Matches(r.Chunks[tailOf[ap.Attr]].p.Tail[i]) {
					bv.Set(i)
					break
				}
			}
		}
		res.N += bv.Count()
		for _, attr := range projs {
			vals := sideways.ReconstructBV(r.Chunks[tailOf[attr]].p.Tail, 0, bv)
			res.Cols[attr] = append(res.Cols[attr], vals...)
		}
	}
	if res.Cols == nil {
		res.Cols = map[string][]Value{}
	}
	for _, attr := range projs {
		if res.Cols[attr] == nil {
			res.Cols[attr] = []Value{}
		}
	}
	return res
}

// conjunctiveRegions finishes a conjunctive plan: per region, refine the
// qualifying range with a bit vector for the secondary predicates and
// reconstruct the projections. Pure read, shared by both paths.
func conjunctiveRegions(regions []Region, tailOf map[string]int, others []AttrPred, projs []string) Result {
	res := Result{Cols: make(map[string][]Value, len(projs))}
	for _, attr := range projs {
		res.Cols[attr] = []Value{}
	}
	for _, r := range regions {
		var bv *bitvec.Vector
		for _, ap := range others {
			tail := r.Chunks[tailOf[ap.Attr]].p.Tail
			if bv == nil {
				bv = sideways.SelectCreateBV(tail, r.Lo, r.Hi, ap.Pred)
			} else {
				sideways.SelectRefineBV(tail, r.Lo, r.Hi, ap.Pred, bv)
			}
		}
		if bv == nil {
			res.N += r.Hi - r.Lo
			for _, attr := range projs {
				res.Cols[attr] = append(res.Cols[attr], r.Tail(tailOf[attr])...)
			}
			continue
		}
		res.N += bv.Count()
		for _, attr := range projs {
			vals := sideways.ReconstructBV(r.Chunks[tailOf[attr]].p.Tail, r.Lo, bv)
			res.Cols[attr] = append(res.Cols[attr], vals...)
		}
	}
	return res
}

// pendingTouches reports whether any pending insertion or deletion of the
// set falls inside pred's value range. Read-only.
func (set *Set) pendingTouches(pred store.Pred) bool {
	if len(set.pendIns) == 0 && len(set.pendDel) == 0 {
		return false
	}
	headCol := set.st.rel.MustColumn(set.attr)
	for _, k := range set.pendIns {
		if pred.Matches(headCol.Vals[k]) {
			return true
		}
	}
	for k := range set.pendDel {
		if pred.Matches(headCol.Vals[k]) {
			return true
		}
	}
	return false
}

// resolveRO returns, in value order, the fetched areas covering pred, or
// ok == false when a gap would have to be fetched from H_A (a write).
// Read-only counterpart of resolve.
func (set *Set) resolveRO(pred store.Pred) ([]*area, bool) {
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()
	if !lowerB.Less(upperB) {
		return nil, true
	}
	var out []*area
	cur := lowerB
	i := 0
	for cur.Less(upperB) {
		for i < len(set.areas) && !cur.Less(set.areas[i].hiB) {
			i++
		}
		if i >= len(set.areas) || cur.Less(set.areas[i].loB) {
			return nil, false
		}
		out = append(out, set.areas[i])
		cur = set.areas[i].hiB
		i++
	}
	return out, true
}

// regionsRO builds the chunk-wise regions for pred without replaying,
// fetching, or cracking anything. ok is false when the write path would
// reorganize: a gap needs fetching, a chunk is missing or misaligned, or a
// boundary chunk lacks the predicate's physical bounds.
func (s *Store) regionsRO(set *Set, pred store.Pred, tailAttrs []string) ([]Region, bool) {
	areas, ok := set.resolveRO(pred)
	if !ok {
		return nil, false
	}
	if len(areas) == 0 {
		return nil, true
	}
	lowerB, upperB := pred.LowerBound(), pred.UpperBound()
	first, last := areas[0], areas[len(areas)-1]
	regions := make([]Region, 0, len(areas))
	for _, w := range areas {
		chunks := make([]*chunk, len(tailAttrs))
		cursor := -1
		for i, attr := range tailAttrs {
			c, ok := w.chunks[attr]
			if !ok {
				return nil, false
			}
			// The write path replays laggards to a shared target; a cursor
			// mismatch among the used chunks means replay work.
			if cursor == -1 {
				cursor = c.cursor
			} else if c.cursor != cursor {
				return nil, false
			}
			chunks[i] = c
		}
		if len(tailAttrs) > 0 {
			if boundaryArea(w, first, last, lowerB, upperB) || s.ForceFullAlignment {
				// Boundary chunks must already sit at the tape end (the
				// write path would replay this query's crack onto them).
				if cursor != len(w.tape) {
					return nil, false
				}
			} else if cursor < w.lastUpdate {
				// Partial alignment may lag on cracks but never on updates.
				return nil, false
			}
		}
		lo, hi := 0, 0
		if len(chunks) > 0 {
			hi = chunks[0].Len()
			if w == first && first.loB.Less(lowerB) {
				p, ok := chunks[0].p.Idx.Lookup(lowerB)
				if !ok {
					return nil, false
				}
				lo = p
			}
			if w == last && upperB.Less(last.hiB) {
				p, ok := chunks[0].p.Idx.Lookup(upperB)
				if !ok {
					return nil, false
				}
				hi = p
			}
			if hi < lo {
				hi = lo
			}
		}
		regions = append(regions, Region{Chunks: chunks, Lo: lo, Hi: hi})
	}
	return regions, true
}

// planRO resolves a full read-only plan or reports ok == false when the
// query needs the write path.
func (s *Store) planRO(preds []AttrPred, projs []string, disjunctive bool) (regions []Region, tailOf map[string]int, head AttrPred, others []AttrPred, ok bool) {
	if len(preds) == 0 {
		return nil, nil, head, nil, false
	}
	var tailAttrs []string
	head, others, tailAttrs, tailOf = s.multiPlan(preds, projs, disjunctive)
	set := s.sets[head.Attr]
	if set == nil {
		return nil, nil, head, nil, false
	}
	pred := head.Pred
	if disjunctive {
		pred = FullRange
	}
	if set.pendingTouches(pred) {
		return nil, nil, head, nil, false
	}
	regions, ok = s.regionsRO(set, pred, tailAttrs)
	if !ok {
		return nil, nil, head, nil, false
	}
	return regions, tailOf, head, others, true
}

// ProbeMulti is the read-only probe of the two-phase (probe/execute)
// protocol: it reports whether MultiSelect(preds, projs, disjunctive) would
// physically reorganize the store (fetch an area, create or replay a chunk,
// crack, merge pending updates, or grow a tape). Safe for concurrent use
// with other read-only operations.
func (s *Store) ProbeMulti(preds []AttrPred, projs []string, disjunctive bool) bool {
	_, _, _, _, ok := s.planRO(preds, projs, disjunctive)
	return !ok
}

// MultiSelectRO is the reorganization-free execute path paired with
// ProbeMulti: it answers the query only when every needed chunk exists,
// is sufficiently aligned, and no pending update or fetch is required.
// ok is false otherwise; callers then fall back to MultiSelect under
// exclusive access. LFU access counters are bumped atomically; the
// head-drop idle clock is not advanced by read-only queries.
func (s *Store) MultiSelectRO(preds []AttrPred, projs []string, disjunctive bool) (Result, bool) {
	regions, tailOf, head, others, ok := s.planRO(preds, projs, disjunctive)
	if !ok {
		return Result{}, false
	}
	// No dedup needed: regions are one per area and a region's chunks are
	// keyed by distinct tail attributes, so no chunk repeats.
	for _, r := range regions {
		for _, c := range r.Chunks {
			atomic.AddInt64(&c.access, 1)
		}
	}
	if disjunctive {
		return disjunctiveRegions(regions, tailOf, head, others, projs), true
	}
	return conjunctiveRegions(regions, tailOf, others, projs), true
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
