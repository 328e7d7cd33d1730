// Package sideways implements sideways cracking with fully materialized
// cracker maps (Section 3 of the paper).
//
// A cracker map M_AB is a two-column table: head = values of attribute A,
// tail = values of attribute B, pairwise from the same relational tuples.
// All maps with head A form the map set S_A. Every selection on A cracks the
// map(s) a query uses and is logged in the set's cracker tape T_A; a map is
// aligned (synchronized) by replaying the tape from its private cursor. The
// deterministic cracking algorithms in internal/crack guarantee that maps
// replaying the same tape prefix are physically identical in head order, so
// multi-attribute results are positionally aligned and tuple reconstruction
// is free (Section 3.2). The same fact makes alignment cheaper: maps at one
// cursor replay the tape once, each crack decided on one head and applied
// to the others as followers (Tape.ReplayJoint), so a query over two lagging
// maps of a set replays what a query over one would.
//
// Multi-selection queries use a single aligned set plus bit-vector filtering
// (Section 3.3); the set is chosen via the self-organizing histograms kept
// by the cracker indices. Updates follow Section 3.5: pending insertions and
// deletions per set, merged on demand by the Ripple algorithm and logged in
// the tape so all maps of the set apply them in the same order. A merged
// deletion is found by value: its tuple is the one position of the maps the
// query aligns anyway whose head and tails equal the deleted row. Only when
// those columns hold an equal tuple beside it does the set build its key map
// M_Akey (head = A, tail = tuple keys) to find it by key.
package sideways

import (
	"fmt"
	"slices"

	"crackstore/internal/bitvec"
	"crackstore/internal/crack"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Map is a cracker map M_A,tail: head = A values, tail = values of the tail
// attribute (or tuple keys for the set's key map M_Akey).
type Map struct {
	tailAttr string // "" for the key map
	pairs    *crack.Pairs
	cursor   int // tape position of the last replayed entry
	Usage        // for storage management
}

// Len returns the number of tuples currently in the map.
func (m *Map) Len() int { return m.pairs.Len() }

// Cursor returns the map's tape cursor (for tests and map-set choice).
func (m *Map) Cursor() int { return m.cursor }

// Pairs exposes the underlying pairs (head/tail/index) read-only by
// convention; used by the engine for aggregates over clustered pieces.
func (m *Map) Pairs() *crack.Pairs { return m.pairs }

// Set is a map set S_A: the collection of cracker maps with head attribute
// A, their shared cracker tape T_A, and the set's pending updates.
type Set struct {
	st     *Store
	attr   string
	tape   Tape
	maps   map[string]*Map
	keyMap *Map     // M_Akey: built by MergePendingAll, QueryKeys or a delete no query finds by value
	pend   *Pending // updates not yet in the tape

	// policy is the store's cracking policy frozen at set creation: every
	// map of the set replays the same tape and must make identical pivot
	// decisions, so a later Store.Policy change must not split a set.
	policy crack.Policy
}

// Attr returns the head attribute name.
func (s *Set) Attr() string { return s.attr }

// TapeLen returns the number of tape entries (for tests/alignment metrics).
func (s *Set) TapeLen() int { return len(s.tape) }

// Maps returns the live maps keyed by tail attribute.
func (s *Set) Maps() map[string]*Map { return s.maps }

// Store owns a base relation plus all map sets built over it.
type Store struct {
	Base
	sets map[string]*Set

	// Budget is the storage threshold T in tuples for map storage; 0 means
	// unlimited. When exceeded, the maps of lowest Usage priority not
	// needed by the current query are dropped (Section 4.2's full-map
	// policy, least-frequently-used, with aging).
	Budget int

	// EagerAlignment is an ablation switch: when set, every query aligns
	// ALL maps of the touched set to the tape end, i.e. the "on-line
	// alignment" strategy Section 3.2 rejects ("every query would have to
	// touch all maps of a set"). Default false = adaptive (lazy) alignment.
	EagerAlignment bool

	// NaiveSetChoice is an ablation switch: when set, MultiSelect uses the
	// first predicate's map set instead of consulting the self-organizing
	// histograms for the most selective one (Section 3.3).
	NaiveSetChoice bool

	// Policy is the adaptive cracking policy (crack.Policy) applied to
	// maps. It is snapshotted per map set at set creation: every map of a
	// set must crack under one policy or tape replay would misalign the
	// set, so set Policy before the first query touches an attribute.
	Policy crack.Policy
}

// NewStore wraps rel (not copied) for sideways cracking.
func NewStore(rel *store.Relation) *Store {
	return &Store{Base: NewBase(rel), sets: make(map[string]*Set)}
}

// NumSets returns the number of materialized map sets.
func (s *Store) NumSets() int { return len(s.sets) }

// Kernel aggregates the kernel partition counters over every map the store
// has had, key maps and evicted maps included, and the cracker-index sizes
// over the live ones: the observability bridge. Call it under the same
// synchronization as queries (the stats are plain ints on the maps' Pairs).
func (s *Store) Kernel() (ks crack.KernelStats, pieces, cols int) {
	ks = s.RetiredKernel()
	count := func(m *Map) {
		ks.Add(m.pairs.Stats)
		pieces += m.pairs.Idx.Pieces()
		cols++
	}
	for _, set := range s.sets {
		for _, m := range set.maps {
			count(m)
		}
		if set.keyMap != nil {
			count(set.keyMap)
		}
	}
	return ks, pieces, cols
}

// StorageTuples returns the total size of all maps in tuples (a map of
// length n costs n tuples, as in the paper's Figures 9(d)/10(c)).
func (s *Store) StorageTuples() int {
	total := 0
	for _, set := range s.sets {
		for _, m := range set.maps {
			total += m.Len()
		}
		if set.keyMap != nil {
			total += set.keyMap.Len()
		}
	}
	return total
}

// Set returns the map set for attr, creating it on demand (see NewPending
// for what a set created after updates starts from).
func (s *Store) Set(attr string) *Set {
	if set, ok := s.sets[attr]; ok {
		return set
	}
	// NewPending validates attr before anything is registered: a panic on
	// an unknown attribute must not leave a half-created set behind (a
	// later read-only probe would mistake it for real cracking knowledge).
	set := &Set{
		st:     s,
		attr:   attr,
		pend:   NewPending(&s.Base, attr),
		maps:   make(map[string]*Map),
		policy: s.Policy,
	}
	s.sets[attr] = set
	return set
}

// SetIfExists returns the map set for attr if it is materialized.
func (s *Store) SetIfExists(attr string) *Set { return s.sets[attr] }

// newMap materializes map M_A,tailAttr from the base prefix. tailAttr ""
// creates the key map M_Akey. The map starts at tape cursor 0; the caller
// aligns it. Base-prefix columns are cloned rather than made and copied: a
// clone skips zeroing memory the copy overwrites anyway.
func (set *Set) newMap(tailAttr string) *Map {
	n := set.pend.baseLen
	head := slices.Clone(set.pend.head.Vals[:n])
	var tail []Value
	if tailAttr == "" {
		tail = make([]Value, n)
		for i := range tail {
			tail[i] = Value(i)
		}
	} else {
		tail = slices.Clone(set.st.rel.MustColumn(tailAttr).Vals[:n])
	}
	m := &Map{tailAttr: tailAttr, pairs: crack.WrapPairs(head, tail)}
	m.pairs.Policy = set.policy
	return m
}

// MapIfExists returns the map for tailAttr if materialized.
func (set *Set) MapIfExists(tailAttr string) *Map { return set.maps[tailAttr] }

// align replays the tape entries the maps ms have not seen yet. Maps at one
// cursor replay together: each crack is decided once, on one head
// (Tape.ReplayJoint).
func (set *Set) align(ms ...*Map) {
	var members []Member
	for _, m := range ms {
		if m.cursor == len(set.tape) {
			continue
		}
		members = append(members, Member{Pairs: m.pairs, Cursor: &m.cursor, Tail: set.tailCol(m)})
	}
	set.tape.ReplayJoint(members, len(set.tape), set.pend.head)
}

// tailCol returns the base column of m's tail attribute, nil for a tail of
// tuple keys.
func (set *Set) tailCol(m *Map) *store.Column {
	if m.tailAttr == "" {
		return nil
	}
	return set.st.rel.MustColumn(m.tailAttr)
}

// mergePending converts pending updates relevant to pred into tape entries
// (Section 3.5). Matching insertions become an insert entry. Matching
// deletions become a delete entry carrying physical positions, found —
// reading only the pieces pred falls into — by value in the maps ms, aligned
// to the tape end first: a deleted tuple is the one position whose head and
// tails equal its row. When some deleted row equals a second tuple on those
// columns, or ms is empty, the aligned key map finds them by key instead.
func (set *Set) mergePending(pred store.Pred, ms []*Map) {
	if keys := set.pend.TakeInserts(pred); len(keys) > 0 {
		set.tape.LogInsert(keys)
	}
	keys := set.pend.TakeDeletes(pred)
	if len(keys) == 0 {
		return
	}
	if len(ms) > 0 {
		if positions, ok := set.locate(pred, keys, ms); ok {
			set.tape.LogDelete(nil, positions)
			return
		}
	}
	if set.keyMap == nil {
		set.keyMap = set.newMap("")
	}
	positions, _ := set.locate(pred, keys, []*Map{set.keyMap})
	set.tape.LogDelete(nil, positions)
	set.align(set.keyMap)
}

// locate aligns the maps ms to the tape end and finds the tuples of keys
// among them by value: ms[0]'s head and every map's tail against each key's
// row (crack.Pairs.Locate). On the key map alone that is a search by key.
func (set *Set) locate(pred store.Pred, keys []int, ms []*Map) (positions []int, unique bool) {
	set.align(ms...)
	cols := make([]*store.Column, len(ms))
	tails := make([][]Value, len(ms))
	for i, m := range ms {
		cols[i], tails[i] = set.tailCol(m), m.pairs.Tail
	}
	return ms[0].pairs.Locate(pred, set.pend.Rows(keys, cols), tails...)
}

// Query is the set-level sideways.select for one predicate over any number
// of tail attributes: it merges relevant pending updates, logs the crack in
// the tape, creates missing maps, aligns every requested map, and returns
// the contiguous result area [lo, hi) shared by all of them (they are
// positionally aligned). The returned maps give access to the tails.
func (set *Set) Query(pred store.Pred, tailAttrs []string) (lo, hi int, used []*Map) {
	used = make([]*Map, len(tailAttrs))
	for i, attr := range tailAttrs {
		m, ok := set.maps[attr]
		if !ok {
			set.st.ensureBudget(set, tailAttrs)
			m = set.newMap(attr)
			set.maps[attr] = m
		}
		used[i] = m
	}
	set.mergePending(pred, used)
	set.tape.LogCrack(pred)
	if set.st.EagerAlignment {
		all := make([]*Map, 0, len(set.maps))
		for _, m := range set.maps {
			all = append(all, m)
		}
		set.align(all...)
	} else {
		set.align(used...)
	}
	for _, m := range used {
		set.st.Touch(&m.Usage)
	}
	if len(used) == 0 {
		return 0, 0, used
	}
	lo, hi = areaOf(used[0], pred)
	return lo, hi, used
}

// areaOf reads the result area of pred from an aligned map's index.
func areaOf(m *Map, pred store.Pred) (lo, hi int) {
	lo, hi, ok := m.pairs.Area(pred)
	if !ok {
		panic(fmt.Sprintf("sideways: missing boundary after alignment for %v", pred))
	}
	return lo, hi
}

// ensureBudget drops the maps of lowest Usage priority (across all sets,
// never ones needed by the current query) until a new map of base size fits
// within the store budget. With Budget == 0 it is a no-op. Maps of equal
// priority go in (set attribute, tail attribute) order, so one query stream
// always evicts the same maps whatever order the Go maps iterate in.
func (s *Store) ensureBudget(cur *Set, needed []string) {
	if s.Budget <= 0 {
		return
	}
	for s.StorageTuples()+cur.pend.baseLen > s.Budget {
		var victimSet *Set
		var victimAttr string
		var victim *Map
		var victimPrio int64
		for _, set := range s.sets {
			for attr, m := range set.maps {
				if set == cur && slices.Contains(needed, attr) {
					continue
				}
				if prio := m.Priority(); victim == nil || prio < victimPrio || prio == victimPrio &&
					(set.attr < victimSet.attr || set.attr == victimSet.attr && attr < victimAttr) {
					victimSet, victimAttr, victim, victimPrio = set, attr, m, prio
				}
			}
		}
		if victim == nil {
			return // nothing droppable; allow exceeding the budget
		}
		s.Retire(&victim.Usage, victim.pairs.Stats)
		delete(victimSet.maps, victimAttr)
	}
}

// MostAlignedMap returns the map of the set whose cursor is closest to the
// tape end (Section 3.3: better aligned maps give better estimates), or nil
// if the set has no maps.
func (set *Set) MostAlignedMap() *Map {
	var best *Map
	for _, m := range set.maps {
		if best == nil || m.cursor > best.cursor {
			best = m
		}
	}
	return best
}

// EstimateSelectivity estimates the number of tuples matching pred on attr
// using the self-organizing histogram of the most aligned map of S_attr; if
// no map exists it falls back to a uniform estimate from base column stats.
func (s *Store) EstimateSelectivity(attr string, pred store.Pred) int {
	if set := s.sets[attr]; set != nil {
		if m := set.MostAlignedMap(); m != nil {
			_, _, est := m.pairs.Idx.Estimate(pred.LowerBound(), pred.UpperBound(), m.Len())
			return est
		}
	}
	return s.UniformEstimate(attr, pred)
}

// SelectProject evaluates a single-selection, multi-projection query
// (Section 3.2): select projs from R where pred(selAttr). All projection
// maps come from set S_selAttr and are aligned, so the result tails are
// positionally aligned slices.
func (s *Store) SelectProject(selAttr string, pred store.Pred, projs []string) Result {
	return s.MultiSelect([]AttrPred{{Attr: selAttr, Pred: pred}}, projs, false)
}

// plan lays out a multi-selection plan: the map set is chosen via the
// self-organizing histograms, or is simply the first predicate's under the
// NaiveSetChoice ablation.
func (s *Store) plan(preds []AttrPred, projs []string, disjunctive bool) Plan {
	if s.NaiveSetChoice {
		return PlanMulti(nil, preds, projs, disjunctive)
	}
	return PlanMulti(s, preds, projs, disjunctive)
}

// MultiSelect evaluates a multi-selection query with optional projections
// (Section 3.3). Conjunctive plans pick the most selective predicate's set
// and filter the aligned candidate area with a bit vector
// (select_create_bv / select_refine_bv / reconstruct); disjunctive plans
// pick the least selective set and a map-sized bit vector.
func (s *Store) MultiSelect(preds []AttrPred, projs []string, disjunctive bool) Result {
	pl := s.plan(preds, projs, disjunctive)
	set := s.Set(pl.Head.Attr)
	if disjunctive {
		// A disjunctive plan reads the whole map (areas outside w too), so
		// every pending update is relevant regardless of the head
		// predicate and must be merged first.
		set.MergePendingAll()
	}
	lo, hi, used := set.Query(pl.Head.Pred, pl.Tails)
	return pl.finish(lo, hi, used, disjunctive)
}

// finish answers a plan from its aligned maps and head area [lo, hi). A
// pure read, shared by the write path and the read-only path.
func (pl *Plan) finish(lo, hi int, used []*Map, disjunctive bool) Result {
	tails := make([][]Value, len(used))
	for i, m := range used {
		tails[i] = m.pairs.Tail
	}
	if disjunctive {
		return pl.disjunctive(lo, hi, tails)
	}
	return pl.Conjunctive([]Window{{Lo: lo, Hi: hi, Tails: tails}})
}

// disjunctive finishes a disjunctive plan over one whole map set: mark
// everything in the head area positionally, then probe unmarked tuples
// outside it for the other predicates.
func (pl *Plan) disjunctive(lo, hi int, tails [][]Value) Result {
	n := 0
	if len(tails) > 0 {
		n = len(tails[0])
	}
	win := Window{Lo: 0, Hi: n, Tails: tails}
	bv := bitvec.New(n)
	bv.SetRange(lo, hi)
	for j, ap := range pl.Others {
		tail := pl.OtherTail(win, j)
		for i := 0; i < lo; i++ {
			if !bv.Get(i) && ap.Pred.Matches(tail[i]) {
				bv.Set(i)
			}
		}
		for i := hi; i < n; i++ {
			if !bv.Get(i) && ap.Pred.Matches(tail[i]) {
				bv.Set(i)
			}
		}
	}
	return pl.Reconstruct([]Window{win}, []*bitvec.Vector{bv})
}

// roEligible reports whether the set can serve pred read-only as far as
// pending updates and the alignment policy are concerned.
func (s *Store) roEligible(set *Set, pred store.Pred, disjunctive bool) bool {
	// Disjunctions read whole maps, so any pending update is relevant.
	if !set.pend.Settled(pred, disjunctive) {
		return false
	}
	if s.EagerAlignment {
		// On-line alignment touches all maps of the set every query; a
		// lagging map means the write path would replay it.
		for _, m := range set.maps {
			if m.cursor != len(set.tape) {
				return false
			}
		}
	}
	return true
}

// roMap returns the map for tailAttr if it exists and is aligned to the
// tape end, or nil when the write path would materialize or replay it.
func (set *Set) roMap(tailAttr string) *Map {
	m := set.maps[tailAttr]
	if m == nil || m.cursor != len(set.tape) {
		return nil
	}
	return m
}

// planRO builds the read-only plan for a query — the aligned maps and head
// area it can be answered from without any reorganization — or reports
// ok == false when answering it would reorganize the store: crack a map,
// merge a pending update, materialize a map, or grow the tape.
func (s *Store) planRO(preds []AttrPred, projs []string, disjunctive bool) (pl Plan, lo, hi int, used []*Map, ok bool) {
	if len(preds) == 0 {
		return pl, 0, 0, nil, false
	}
	pl = s.plan(preds, projs, disjunctive)
	set := s.sets[pl.Head.Attr]
	if set == nil || !s.roEligible(set, pl.Head.Pred, disjunctive) {
		return pl, 0, 0, nil, false
	}
	used = make([]*Map, len(pl.Tails))
	for i, attr := range pl.Tails {
		if used[i] = set.roMap(attr); used[i] == nil {
			return pl, 0, 0, nil, false
		}
	}
	if len(used) > 0 {
		if lo, hi, ok = used[0].pairs.Area(pl.Head.Pred); !ok {
			return pl, 0, 0, nil, false
		}
	}
	return pl, lo, hi, used, true
}

// MultiSelectRO is the reorganization-free execute path of the two-phase
// protocol: it answers the query only when doing so requires no cracking,
// no pending-update merge, no map creation, and no tape growth. ok is false
// otherwise; callers then fall back to MultiSelect under exclusive access.
// Safe for concurrent use with other read-only operations. The maps' Usage
// is bumped atomically; everything else is left untouched.
func (s *Store) MultiSelectRO(preds []AttrPred, projs []string, disjunctive bool) (Result, bool) {
	return s.MultiSelectROInto(nil, preds, projs, disjunctive)
}

// MultiSelectROInto is MultiSelectRO writing the answer into memory the
// caller lends (Plan.Into); into may be nil, and is untouched when ok is
// false.
func (s *Store) MultiSelectROInto(into *Result, preds []AttrPred, projs []string, disjunctive bool) (Result, bool) {
	pl, lo, hi, used, ok := s.planRO(preds, projs, disjunctive)
	if !ok {
		return Result{}, false
	}
	for _, m := range used {
		s.Touch(&m.Usage)
	}
	pl.Into = into
	return pl.finish(lo, hi, used, disjunctive), true
}
