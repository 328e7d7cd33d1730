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
// is free (Section 3.2).
//
// Multi-selection queries use a single aligned set plus bit-vector filtering
// (Section 3.3); the set is chosen via the self-organizing histograms kept
// by the cracker indices. Updates follow Section 3.5: pending insertions and
// deletions per set, merged on demand by the Ripple algorithm and logged in
// the tape so all maps of the set apply them in the same order.
package sideways

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"crackstore/internal/bitvec"
	"crackstore/internal/crack"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

type entryKind uint8

const (
	entryCrack entryKind = iota
	entryInsert
	entryDelete
)

// entry is one cracker-tape record. Crack entries carry the predicate;
// insert entries the tuple keys to ripple-insert; delete entries the
// physical positions (valid at this tape point) to remove.
type entry struct {
	kind      entryKind
	pred      store.Pred
	keys      []int
	positions []int
}

// Map is a cracker map M_A,tail: head = A values, tail = values of the tail
// attribute (or tuple keys for the set's key map M_Akey).
type Map struct {
	tailAttr string // "" for the key map
	pairs    *crack.Pairs
	cursor   int   // tape position of the last replayed entry
	access   int64 // queries that used this map (for LFU storage management);
	// bumped atomically by the read-only path, plainly under exclusive access
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
	st      *Store
	attr    string
	baseLen int // rows in the base prefix all maps start from
	tape    []entry
	maps    map[string]*Map
	keyMap  *Map // M_Akey, created on first merged deletion

	pendIns []int        // keys appended to base but not yet in the tape
	pendDel map[int]bool // keys deleted but not yet in the tape

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

// Store owns a base relation plus all map sets built over it. The base
// columns are append-only: inserts are appended immediately (keys are dense
// positions) while cracking structures keep them pending; deletes are
// tombstoned and merged lazily per set.
type Store struct {
	rel        *store.Relation
	tombstones map[int]bool
	sets       map[string]*Set

	// Budget is the storage threshold T in tuples for map storage; 0 means
	// unlimited. When exceeded, least-frequently-accessed maps not needed
	// by the current query are dropped (Section 4.2's full-map policy).
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

	statsMu        sync.Mutex       // guards colMin/colMax (lazily filled by read-only probes)
	colMin, colMax map[string]Value // cached base column stats for fallback estimation
}

// NewStore wraps rel (not copied) for sideways cracking.
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

// NumSets returns the number of materialized map sets.
func (s *Store) NumSets() int { return len(s.sets) }

// StorageTuples returns the total size of all maps in tuples (a map of
// length n costs n tuples, as in the paper's Figures 9(d)/10(c)).
// Kernel aggregates the kernel partition counters and cracker-index
// sizes over every map of every set: the observability bridge. Call it
// under the same synchronization as queries (the stats are plain ints on
// the maps' Pairs).
func (s *Store) Kernel() (ks crack.KernelStats, pieces, cols int) {
	for _, set := range s.sets {
		for _, m := range set.maps {
			ks.Add(m.pairs.Stats)
			pieces += m.pairs.Idx.Pieces()
			cols++
		}
	}
	return ks, pieces, cols
}

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

// Insert appends a tuple (values in relation attribute order) to the base
// relation and registers it as pending with every existing map set. It
// returns the new tuple's key.
func (s *Store) Insert(vals ...Value) int {
	s.rel.AppendRow(vals...)
	key := s.rel.NumRows() - 1
	for _, set := range s.sets {
		set.pendIns = append(set.pendIns, key)
	}
	return key
}

// Delete tombstones the tuple with the given key and registers a pending
// deletion with every existing map set.
func (s *Store) Delete(key int) {
	if s.tombstones[key] {
		return
	}
	s.tombstones[key] = true
	for _, set := range s.sets {
		set.noteDelete(key)
	}
}

// IsDeleted reports whether key is tombstoned.
func (s *Store) IsDeleted(key int) bool { return s.tombstones[key] }

func (set *Set) noteDelete(key int) {
	if key >= set.baseLen {
		// The tuple might still be a pending insertion: cancel it.
		for i, k := range set.pendIns {
			if k == key {
				set.pendIns = append(set.pendIns[:i], set.pendIns[i+1:]...)
				return
			}
		}
	}
	set.pendDel[key] = true
}

// Set returns the map set for attr, creating it on demand. A set created
// after updates starts from the full current base (inserts included) with
// all live tombstones pending, which is equivalent to having observed the
// updates as pending from the start.
func (s *Store) Set(attr string) *Set {
	if set, ok := s.sets[attr]; ok {
		return set
	}
	// Validate before registering: a panic on an unknown attribute must
	// not leave a half-created set behind (a later read-only probe would
	// mistake it for real cracking knowledge).
	s.rel.MustColumn(attr)
	set := &Set{
		st:      s,
		attr:    attr,
		baseLen: s.rel.NumRows(),
		maps:    make(map[string]*Map),
		pendDel: make(map[int]bool),
		policy:  s.Policy,
	}
	for k := range s.tombstones {
		set.pendDel[k] = true
	}
	s.sets[attr] = set
	return set
}

// SetIfExists returns the map set for attr if it is materialized.
func (s *Store) SetIfExists(attr string) *Set { return s.sets[attr] }

// newMap materializes map M_A,tailAttr from the base prefix. tailAttr ""
// creates the key map M_Akey. The map starts at tape cursor 0; the caller
// aligns it.
func (set *Set) newMap(tailAttr string) *Map {
	headCol := set.st.rel.MustColumn(set.attr)
	head := make([]Value, set.baseLen)
	copy(head, headCol.Vals[:set.baseLen])
	tail := make([]Value, set.baseLen)
	if tailAttr == "" {
		for i := range tail {
			tail[i] = Value(i)
		}
	} else {
		copy(tail, set.st.rel.MustColumn(tailAttr).Vals[:set.baseLen])
	}
	m := &Map{tailAttr: tailAttr, pairs: crack.WrapPairs(head, tail)}
	m.pairs.Policy = set.policy
	return m
}

// MapIfExists returns the map for tailAttr if materialized.
func (set *Set) MapIfExists(tailAttr string) *Map { return set.maps[tailAttr] }

// replay applies tape entries [m.cursor, end) to m.
func (set *Set) replay(m *Map, end int) {
	rel := set.st.rel
	var tailCol *store.Column
	if m.tailAttr != "" {
		tailCol = rel.MustColumn(m.tailAttr)
	}
	headCol := rel.MustColumn(set.attr)
	for ; m.cursor < end; m.cursor++ {
		e := set.tape[m.cursor]
		switch e.kind {
		case entryCrack:
			m.pairs.CrackRange(e.pred)
		case entryInsert:
			m.pairs.RippleInsertKeys(e.keys, headCol, tailCol)
		case entryDelete:
			m.pairs.RippleDeleteBatch(e.positions)
		}
	}
}

// mergePending converts pending updates relevant to pred into tape entries
// (Section 3.5): matching insertions become an insert entry; matching
// deletions are located via the aligned key map — reading only the pieces
// pred falls into — and become a delete entry carrying physical positions.
func (set *Set) mergePending(pred store.Pred) {
	headCol := set.st.rel.MustColumn(set.attr)
	if len(set.pendIns) > 0 {
		var matched []int
		rest := set.pendIns[:0]
		for _, k := range set.pendIns {
			if pred.Matches(headCol.Vals[k]) {
				matched = append(matched, k)
			} else {
				rest = append(rest, k)
			}
		}
		set.pendIns = rest
		if len(matched) > 0 {
			set.tape = append(set.tape, entry{kind: entryInsert, keys: matched})
		}
	}
	if len(set.pendDel) > 0 {
		var matchedKeys []int
		for k := range set.pendDel {
			if pred.Matches(headCol.Vals[k]) {
				matchedKeys = append(matchedKeys, k)
			}
		}
		if len(matchedKeys) > 0 {
			sort.Ints(matchedKeys)
			if set.keyMap == nil {
				set.keyMap = set.newMap("")
			}
			set.replay(set.keyMap, len(set.tape))
			for _, k := range matchedKeys {
				delete(set.pendDel, k)
			}
			positions := set.keyMap.pairs.LocateKeys(pred, matchedKeys)
			set.tape = append(set.tape, entry{kind: entryDelete, positions: positions})
			set.replay(set.keyMap, len(set.tape))
		}
	}
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
			set.st.ensureBudget(set, attr, tailAttrs)
			m = set.newMap(attr)
			set.maps[attr] = m
		}
		used[i] = m
	}
	set.mergePending(pred)
	set.tape = append(set.tape, entry{kind: entryCrack, pred: pred})
	for _, m := range used {
		set.replay(m, len(set.tape))
		m.access++
	}
	if set.st.EagerAlignment {
		for _, m := range set.maps {
			set.replay(m, len(set.tape))
		}
	}
	if len(used) == 0 {
		return 0, 0, used
	}
	lo, hi = areaOf(used[0], pred)
	return lo, hi, used
}

// areaOf reads the result area of pred from an aligned map's index.
func areaOf(m *Map, pred store.Pred) (lo, hi int) {
	lo, ok1 := m.pairs.Idx.Lookup(pred.LowerBound())
	hi, ok2 := m.pairs.Idx.Lookup(pred.UpperBound())
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("sideways: missing boundary after alignment for %v", pred))
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ensureBudget drops least-frequently-accessed maps (across all sets, never
// ones needed by the current query) until a new map of base size fits
// within the store budget. With Budget == 0 it is a no-op.
func (s *Store) ensureBudget(cur *Set, newAttr string, needed []string) {
	if s.Budget <= 0 {
		return
	}
	needTuples := cur.baseLen
	for s.StorageTuples()+needTuples > s.Budget {
		var victimSet *Set
		var victimAttr string
		var victim *Map
		for _, set := range s.sets {
			for attr, m := range set.maps {
				if set == cur && isNeeded(attr, needed) {
					continue
				}
				if victim == nil || m.access < victim.access {
					victimSet, victimAttr, victim = set, attr, m
				}
			}
		}
		if victim == nil {
			return // nothing droppable; allow exceeding the budget
		}
		delete(victimSet.maps, victimAttr)
	}
}

func isNeeded(attr string, needed []string) bool {
	for _, a := range needed {
		if a == attr {
			return true
		}
	}
	return false
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

// AttrPred is one selection of a multi-attribute query.
type AttrPred struct {
	Attr string
	Pred store.Pred
}

// Result of a multi-attribute query: projected columns, positionally
// aligned (row i across all Cols entries belongs to the same tuple).
type Result struct {
	Cols map[string][]Value
	N    int
}

// SelectProject evaluates a single-selection, multi-projection query
// (Section 3.2): select projs from R where pred(selAttr). All projection
// maps come from set S_selAttr and are aligned, so the result tails are
// positionally aligned slices.
func (s *Store) SelectProject(selAttr string, pred store.Pred, projs []string) Result {
	set := s.Set(selAttr)
	lo, hi, used := set.Query(pred, projs)
	res := Result{Cols: make(map[string][]Value, len(projs)), N: hi - lo}
	for i, attr := range projs {
		out := make([]Value, hi-lo)
		copy(out, used[i].pairs.Tail[lo:hi])
		res.Cols[attr] = out
	}
	return res
}

// choosePred picks the plan's head predicate: the most (conjunctive) or
// least (disjunctive) selective one per the self-organizing histograms, or
// simply the first under the NaiveSetChoice ablation. Read-only.
func (s *Store) choosePred(preds []AttrPred, disjunctive bool) int {
	chosen := 0
	if len(preds) == 1 {
		return 0
	}
	if !s.NaiveSetChoice {
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
	}
	return chosen
}

// tailPlan assigns one tail-attribute slot per distinct attribute needed by
// the plan: other selection attributes first, then projections.
func tailPlan(others []AttrPred, projs []string) ([]string, map[string]int) {
	tailAttrs := make([]string, 0, len(others)+len(projs))
	tailOf := make(map[string]int, len(others)+len(projs))
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
	return tailAttrs, tailOf
}

// splitPreds separates the chosen head predicate from the rest.
func splitPreds(preds []AttrPred, chosen int) (AttrPred, []AttrPred) {
	others := make([]AttrPred, 0, len(preds)-1)
	for i, ap := range preds {
		if i != chosen {
			others = append(others, ap)
		}
	}
	return preds[chosen], others
}

// MultiSelect evaluates a multi-selection query with optional projections
// (Section 3.3). Conjunctive plans pick the most selective predicate's set
// and filter the aligned candidate area with a bit vector
// (select_create_bv / select_refine_bv / reconstruct); disjunctive plans
// pick the least selective set and a map-sized bit vector.
func (s *Store) MultiSelect(preds []AttrPred, projs []string, disjunctive bool) Result {
	if len(preds) == 0 {
		panic("sideways: MultiSelect requires at least one predicate")
	}
	// Map set choice via self-organizing histograms.
	head, others := splitPreds(preds, s.choosePred(preds, disjunctive))
	// All tails needed: other selection attributes plus projections.
	tailAttrs, tailOf := tailPlan(others, projs)
	set := s.Set(head.Attr)
	if disjunctive {
		// A disjunctive plan reads the whole map (areas outside w too), so
		// every pending update is relevant regardless of the head
		// predicate and must be merged first.
		set.MergePendingAll()
	}
	lo, hi, used := set.Query(head.Pred, tailAttrs)

	if disjunctive {
		return s.disjunctive(set, lo, hi, used, tailAttrs, tailOf, others, projs)
	}
	return conjunctiveResult(lo, hi, used, tailOf, others, projs)
}

// conjunctiveResult finishes a conjunctive plan over one aligned area:
// refine [lo, hi) with a bit vector for the secondary predicates, then
// reconstruct the projections. A pure read over the aligned maps, shared by
// the write path and the read-only path.
func conjunctiveResult(lo, hi int, used []*Map, tailOf map[string]int, others []AttrPred, projs []string) Result {
	// Conjunctive: bit vector over the candidate area [lo, hi).
	var bv *bitvec.Vector
	for _, ap := range others {
		tail := used[tailOf[ap.Attr]].pairs.Tail
		if bv == nil {
			bv = SelectCreateBV(tail, lo, hi, ap.Pred) // operator select_create_bv
		} else {
			SelectRefineBV(tail, lo, hi, ap.Pred, bv) // operator select_refine_bv
		}
	}
	res := Result{Cols: make(map[string][]Value, len(projs))}
	if bv == nil {
		res.N = hi - lo
		for _, attr := range projs {
			out := make([]Value, hi-lo)
			copy(out, used[tailOf[attr]].pairs.Tail[lo:hi])
			res.Cols[attr] = out
		}
		return res
	}
	res.N = bv.Count()
	for _, attr := range projs {
		res.Cols[attr] = ReconstructBV(used[tailOf[attr]].pairs.Tail, lo, bv) // operator reconstruct
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

// roPlan is a fully resolved read-only query plan: the aligned maps and
// result area a query can be answered from without any reorganization.
type roPlan struct {
	set       *Set
	lo, hi    int
	used      []*Map
	tailAttrs []string
	tailOf    map[string]int
	others    []AttrPred
}

// roEligible reports whether the set can serve pred read-only as far as
// pending updates and the alignment policy are concerned. Shared by planRO
// and the MultiSelectRO fast path so the eligibility rules live in one
// place.
func (s *Store) roEligible(set *Set, pred store.Pred, disjunctive bool) bool {
	if disjunctive {
		// Disjunctions read whole maps, so any pending update is relevant.
		if len(set.pendIns) > 0 || len(set.pendDel) > 0 {
			return false
		}
	} else if set.pendingTouches(pred) {
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

// planRO builds the read-only plan for a query, or reports ok == false when
// answering it would reorganize the store: crack a map, merge a pending
// update, materialize a map, or grow the tape.
func (s *Store) planRO(preds []AttrPred, projs []string, disjunctive bool) (roPlan, bool) {
	var plan roPlan
	if len(preds) == 0 {
		return plan, false
	}
	head, others := splitPreds(preds, s.choosePred(preds, disjunctive))
	set := s.sets[head.Attr]
	if set == nil || !s.roEligible(set, head.Pred, disjunctive) {
		return plan, false
	}
	tailAttrs, tailOf := tailPlan(others, projs)
	used := make([]*Map, len(tailAttrs))
	for i, attr := range tailAttrs {
		if used[i] = set.roMap(attr); used[i] == nil {
			return plan, false
		}
	}
	lo, hi := 0, 0
	if len(used) > 0 {
		var ok bool
		lo, hi, ok = used[0].pairs.Area(head.Pred)
		if !ok {
			return plan, false
		}
	}
	return roPlan{set: set, lo: lo, hi: hi, used: used,
		tailAttrs: tailAttrs, tailOf: tailOf, others: others}, true
}

// ProbeMulti is the read-only probe of the two-phase (probe/execute)
// protocol: it reports whether MultiSelect(preds, projs, disjunctive) would
// physically reorganize the store. Safe for concurrent use with other
// read-only operations.
func (s *Store) ProbeMulti(preds []AttrPred, projs []string, disjunctive bool) bool {
	_, ok := s.planRO(preds, projs, disjunctive)
	return !ok
}

// MultiSelectRO is the reorganization-free execute path paired with
// ProbeMulti: it answers the query only when doing so requires no cracking,
// no pending-update merge, no map creation, and no tape growth. ok is false
// otherwise; callers then fall back to MultiSelect under exclusive access.
// Safe for concurrent use with other read-only operations. LFU access
// counters are bumped atomically; everything else is left untouched.
func (s *Store) MultiSelectRO(preds []AttrPred, projs []string, disjunctive bool) (Result, bool) {
	// Dedicated fast path for the dominant aligned-repeat shape: one
	// predicate, one projection, conjunctive. Same eligibility rules as
	// planRO (roEligible/roMap/Area) without its plan allocations — no
	// tail maps, no bit vectors, just index lookups and one slice copy.
	if len(preds) == 1 && len(projs) == 1 && !disjunctive {
		head := preds[0]
		set := s.sets[head.Attr]
		if set == nil || !s.roEligible(set, head.Pred, false) {
			return Result{}, false
		}
		m := set.roMap(projs[0])
		if m == nil {
			return Result{}, false
		}
		lo, hi, ok := m.pairs.Area(head.Pred)
		if !ok {
			return Result{}, false
		}
		atomic.AddInt64(&m.access, 1)
		out := make([]Value, hi-lo)
		copy(out, m.pairs.Tail[lo:hi])
		return Result{Cols: map[string][]Value{projs[0]: out}, N: hi - lo}, true
	}
	plan, ok := s.planRO(preds, projs, disjunctive)
	if !ok {
		return Result{}, false
	}
	for _, m := range plan.used {
		atomic.AddInt64(&m.access, 1)
	}
	if disjunctive {
		return s.disjunctive(plan.set, plan.lo, plan.hi, plan.used,
			plan.tailAttrs, plan.tailOf, plan.others, projs), true
	}
	return conjunctiveResult(plan.lo, plan.hi, plan.used, plan.tailOf, plan.others, projs), true
}

// disjunctive finishes a disjunctive plan: mark everything in the head
// area, then probe unmarked tuples outside it for the other predicates.
func (s *Store) disjunctive(set *Set, lo, hi int, used []*Map, tailAttrs []string,
	tailOf map[string]int, others []AttrPred, projs []string) Result {

	n := 0
	if len(used) > 0 {
		n = used[0].Len()
	}
	bv := bitvec.New(n)
	bv.SetRange(lo, hi)
	for _, ap := range others {
		tail := used[tailOf[ap.Attr]].pairs.Tail
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
	res := Result{Cols: make(map[string][]Value, len(projs)), N: bv.Count()}
	for _, attr := range projs {
		res.Cols[attr] = ReconstructBV(used[tailOf[attr]].pairs.Tail, 0, bv)
	}
	return res
}

// SelectCreateBV is operator sideways.select_create_bv step (8): create a
// bit vector for area [lo, hi) of an aligned map tail under pred.
func SelectCreateBV(tail []Value, lo, hi int, pred store.Pred) *bitvec.Vector {
	bv := bitvec.New(hi - lo)
	for i := lo; i < hi; i++ {
		if pred.Matches(tail[i]) {
			bv.Set(i - lo)
		}
	}
	return bv
}

// SelectRefineBV is operator sideways.select_refine_bv step (8): clear bits
// of tuples in [lo, hi) that fail pred.
func SelectRefineBV(tail []Value, lo, hi int, pred store.Pred, bv *bitvec.Vector) {
	for i := lo; i < hi; i++ {
		if bv.Get(i-lo) && !pred.Matches(tail[i]) {
			bv.Clear(i - lo)
		}
	}
}

// ReconstructBV is operator sideways.reconstruct step (8): gather the tail
// values whose bit is set; base is the tail offset of bit 0.
func ReconstructBV(tail []Value, base int, bv *bitvec.Vector) []Value {
	out := make([]Value, 0, bv.Count())
	bv.ForEachSet(func(i int) { out = append(out, tail[base+i]) })
	return out
}
