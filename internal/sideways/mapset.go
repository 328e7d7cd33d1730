package sideways

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"crackstore/internal/bitvec"
	"crackstore/internal/crack"
	"crackstore/internal/store"
)

// This file is the map-set core that does not depend on how a set lays out
// its maps: the base-side state of a store, a set's pending-update ledger,
// the cracker tape, the multi-selection planner, the bit-vector finish and
// the eviction priority of the storage manager.

// Usage is what the storage manager knows about one evictable map, full or
// partial. It evicts by LFU with dynamic aging: a structure's priority is its access count plus the store's age
// when it was last used, and the age is the priority of the last victim.
// Counts alone would keep the much-used structures of a batch that ended and
// evict the ones the current batch created a query ago; with the age, a
// structure nobody uses is overtaken by the new ones within a few evictions.
type Usage struct {
	access atomic.Int64 // queries that used the structure
	usedAt atomic.Int64 // the store's age at the last of them
}

// Priority orders eviction: the lowest goes first. Callers break ties by the
// structure's name so one query stream always evicts the same victims.
func (u *Usage) Priority() int64 { return u.usedAt.Load() + u.access.Load() }

// Accesses returns the number of queries that used the structure.
func (u *Usage) Accesses() int64 { return u.access.Load() }

// touch records one query's use of u. Read-only queries call it
// concurrently: the age only moves under exclusive access, so they all store
// the same one — and none at all while nothing has been evicted since the
// last use, the whole life of an unbudgeted store.
func (s *Store) touch(u *Usage) {
	if u.usedAt.Load() != s.age {
		u.usedAt.Store(s.age)
	}
	u.access.Add(1)
}

// retire records the eviction of the structure u describes: the store ages
// to its priority, and the kernel work ks done on it stays counted.
func (s *Store) retire(u *Usage, ks crack.KernelStats) {
	s.age = max(s.age, u.Priority())
	s.retired.Add(ks)
}

// Relation returns the underlying base relation.
func (s *Store) Relation() *store.Relation { return s.rel }

// Insert appends a tuple (values in relation attribute order) to the base
// relation and registers it as pending with every existing map set. It
// returns the new tuple's key.
func (s *Store) Insert(vals ...Value) int {
	s.rel.AppendRow(vals...)
	key := s.rel.NumRows() - 1
	for _, set := range s.sets {
		set.pend.ins = append(set.pend.ins, key)
	}
	return key
}

// Delete tombstones the tuple with the given key and registers a pending
// deletion with every existing map set. A key no tuple has, negative or
// beyond the last row, is ignored.
func (s *Store) Delete(key int) {
	if !s.rel.Delete(key) {
		return
	}
	for _, set := range s.sets {
		set.pend.noteDelete(key)
	}
}

// uniformEstimate estimates the number of tuples matching pred on attr from
// the base column's value range alone: the fallback of EstimateSelectivity
// for attributes without cracking knowledge.
func (s *Store) uniformEstimate(attr string, pred store.Pred) int {
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
	l, h, _ := store.MinMax(col.Vals)
	s.colMin[attr], s.colMax[attr] = l, h
	return l, h
}

// Pending is one map set's pending-update ledger (Section 3.5): insertions
// appended to the base and deletions tombstoned there that the set's maps
// have not applied yet. Queries take the updates their predicate touches
// out of the ledger and log them in a tape.
type Pending struct {
	head    *store.Column // the set's head attribute in the base relation
	baseLen int           // rows in the base prefix the set's maps start from
	ins     []int         // keys, in arrival order
	del     map[int]bool
	// insScanned counts the pending insertions noteDelete has compared
	// against; tests pin the baseLen rule with it.
	insScanned int
}

// newPending returns the ledger of a new map set of rel with head attribute
// attr. A set created after updates starts from the full current base
// (inserts included) with all live tombstones pending, which is equivalent
// to having observed the updates as pending from the start. An unknown
// attribute panics.
func newPending(rel *store.Relation, attr string) *Pending {
	dead := rel.Deleted()
	p := &Pending{
		head:    rel.MustColumn(attr),
		baseLen: rel.NumRows(),
		del:     make(map[int]bool, len(dead)),
	}
	for _, k := range dead {
		p.del[k] = true
	}
	return p
}

func (p *Pending) noteDelete(key int) {
	if key >= p.baseLen {
		// The tuple might still be a pending insertion: cancel it. Keys
		// below baseLen were in the base when the set was created and never
		// pass through ins.
		for i, k := range p.ins {
			if k == key {
				p.insScanned += i + 1
				p.ins = append(p.ins[:i], p.ins[i+1:]...)
				return
			}
		}
		p.insScanned += len(p.ins)
	}
	p.del[key] = true
}

// TakeInserts removes and returns, in arrival order, the pending insertions
// whose head value matches pred.
func (p *Pending) TakeInserts(pred store.Pred) []int {
	var matched []int
	rest := p.ins[:0]
	for _, k := range p.ins {
		if pred.Matches(p.head.Vals[k]) {
			matched = append(matched, k)
		} else {
			rest = append(rest, k)
		}
	}
	p.ins = rest
	return matched
}

// TakeDeletes removes and returns, ascending, the pending deletions whose
// head value matches pred.
func (p *Pending) TakeDeletes(pred store.Pred) []int {
	var matched []int
	for k := range p.del {
		if pred.Matches(p.head.Vals[k]) {
			matched = append(matched, k)
		}
	}
	sort.Ints(matched)
	for _, k := range matched {
		delete(p.del, k)
	}
	return matched
}

// Rows returns the tuples of keys as crack.Pairs.Locate looks for them:
// each key's head value, and its value in each of tails, the base columns
// of the compared tails in order. A nil column stands for a tail of tuple
// keys, where a row holds the key itself.
func (p *Pending) Rows(keys []int, tails []*store.Column) []crack.Row {
	vals := make([]Value, len(keys)*len(tails))
	rows := make([]crack.Row, len(keys))
	for i, k := range keys {
		r := vals[i*len(tails) : (i+1)*len(tails) : (i+1)*len(tails)]
		for j, col := range tails {
			if col == nil {
				r[j] = Value(k)
			} else {
				r[j] = col.Vals[k]
			}
		}
		rows[i] = crack.Row{Head: p.head.Vals[k], Tails: r}
	}
	return rows
}

// Restore pushes the updates logged in t back into the ledger, so they
// reapply when the value range t covered is materialized again.
func (p *Pending) Restore(t Tape) {
	for _, e := range t {
		switch e.kind {
		case entryInsert:
			p.ins = append(p.ins, e.keys...)
		case entryDelete:
			for _, k := range e.keys {
				p.del[k] = true
			}
		}
	}
}

// FullRange matches every tuple: the value range of plans that read whole
// maps (disjunctions).
var FullRange = store.Pred{Lo: math.MinInt64, Hi: math.MaxInt64, LoIncl: true, HiIncl: true}

// Settled reports whether a query over pred's value range can be answered
// without merging: no pending update falls inside it. whole widens the
// range to the entire domain, for plans that read whole maps (disjunctions).
// Read-only.
func (p *Pending) Settled(pred store.Pred, whole bool) bool {
	if len(p.ins) == 0 && len(p.del) == 0 {
		return true
	}
	return !whole && !p.pendingTouches(pred)
}

// pendingTouches reports whether any pending insertion or deletion falls
// inside pred's value range. Read-only.
func (p *Pending) pendingTouches(pred store.Pred) bool {
	for _, k := range p.ins {
		if pred.Matches(p.head.Vals[k]) {
			return true
		}
	}
	for k := range p.del {
		if pred.Matches(p.head.Vals[k]) {
			return true
		}
	}
	return false
}

type entryKind uint8

const (
	entryCrack entryKind = iota
	entryInsert
	entryDelete
)

// entry is one cracker-tape record. Crack entries carry the predicate;
// insert entries the tuple keys to ripple-insert; delete entries the
// physical positions (valid at this tape point) to remove and the tuple
// keys they hold, so the tape can be un-logged again (Pending.Restore).
type entry struct {
	kind      entryKind
	pred      store.Pred
	keys      []int
	positions []int
}

// Tape is a cracker tape: the log of cracks and merged updates that every
// map (or chunk) sharing it replays, in order, from its private cursor.
type Tape []entry

// LogCrack appends a crack of pred.
func (t *Tape) LogCrack(pred store.Pred) { *t = append(*t, entry{kind: entryCrack, pred: pred}) }

// inserted returns the number of tuples the insert entries [from, to) add.
func (t Tape) inserted(from, to int) (n int) {
	for _, e := range t[from:max(from, to)] {
		if e.kind == entryInsert {
			n += len(e.keys)
		}
	}
	return n
}

// Member is one map or chunk a joint replay aligns: its pairs, its tape
// cursor, and the base column its tail takes inserted tuples' values from
// (nil when the tail stores tuple keys).
type Member struct {
	Pairs  *crack.Pairs
	Cursor *int
	Tail   *store.Column
}

// ReplayJoint aligns the members ms to tape position to, replaying each
// entry once for every member that has reached it (staggered alignment).
// The member furthest behind replays alone until it reaches the next
// member's cursor; that member then joins it, and so on. Every entry, crack,
// insert or delete, is decided once per group, on its first member, and
// applied to the rest as followers (crack.Pairs.CrackRangeWith,
// RippleInsertKeys, RippleDeleteBatch). That is layout-identical to
// replaying each member alone, because members at one cursor hold equal
// heads and equal boundaries: the alignment invariant. A member may be a
// tail alone (no head, no index) when its leader, listed before it at its
// cursor, replays with it: the first member at the lowest cursor has a
// head. Members at or past to are left alone; the others end with cursor
// to. headCol is the base column of the set's head attribute. ms is
// reordered.
func (t Tape) ReplayJoint(ms []Member, to int, headCol *store.Column) {
	slices.SortStableFunc(ms, func(a, b Member) int { return cmp.Compare(*a.Cursor, *b.Cursor) })
	if len(ms) == 0 || *ms[0].Cursor >= to {
		return
	}
	var ps []*crack.Pairs    // the group's pairs: ps[0] leads, ps[1:] follow
	var cols []*store.Column // the base column of each one's tail
	next := 0                // first member of ms that has not joined
	for at := *ms[0].Cursor; at < to; {
		for next < len(ms) && *ms[next].Cursor == at {
			// A member listed twice must not follow itself: its swaps
			// would cancel.
			if m := ms[next]; !slices.Contains(ps, m.Pairs) {
				ps, cols = append(ps, m.Pairs), append(cols, m.Tail)
			}
			next++
		}
		stop := to
		if next < len(ms) {
			stop = min(to, *ms[next].Cursor)
		}
		for _, e := range t[at:stop] {
			switch e.kind {
			case entryCrack:
				ps[0].CrackRangeWith(e.pred, ps[1:])
			case entryInsert:
				ps[0].RippleInsertKeys(e.keys, headCol, cols, ps[1:]...)
			case entryDelete:
				ps[0].RippleDeleteBatch(e.positions, ps[1:]...)
			}
		}
		at = stop
	}
	for _, m := range ms[:next] {
		*m.Cursor = to
	}
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

// Plan is a multi-selection plan over one map set (Section 3.3): the head
// predicate whose set answers the query, the remaining predicates evaluated
// on tails, and one tail slot per distinct attribute the plan reads.
type Plan struct {
	Head   AttrPred
	Others []AttrPred
	// Tails lists the distinct tail attributes: Others' first, then the
	// projections. The set materializes one aligned map or chunk per slot.
	Tails []string
	// Into is memory the caller lends for the answer, nil for none; see
	// Reconstruct.
	Into *Result

	otherSlot []int    // Tails slot of each Others predicate
	projs     []string // as the caller listed them; may repeat
}

// PlanMulti lays out the plan for preds and projs. The head predicate is
// the most (conjunctive) or least (disjunctive) selective one according to
// s's estimates; a lone predicate is the head without consulting s.
func PlanMulti(s *Store, preds []AttrPred, projs []string, disjunctive bool) Plan {
	if len(preds) == 0 {
		panic("sideways: a multi-selection plan requires at least one predicate")
	}
	chosen := choosePred(s, preds, disjunctive)
	pl := Plan{
		Head:      preds[chosen],
		Others:    make([]AttrPred, 0, len(preds)-1),
		Tails:     make([]string, 0, len(preds)+len(projs)),
		otherSlot: make([]int, 0, len(preds)-1),
		projs:     projs,
	}
	for i, ap := range preds {
		if i != chosen {
			pl.Others = append(pl.Others, ap)
			pl.otherSlot = append(pl.otherSlot, pl.Slot(ap.Attr))
		}
	}
	for _, attr := range projs {
		pl.Slot(attr)
	}
	if len(pl.Tails) == 0 {
		// One predicate and nothing projected: the answer is a count, and
		// the set can only read an area off a map it has. Its own head
		// attribute is the tail that asks for nothing else.
		pl.Slot(pl.Head.Attr)
	}
	return pl
}

// choosePred picks the plan's head predicate. Read-only.
func choosePred(s *Store, preds []AttrPred, disjunctive bool) int {
	chosen := 0
	if len(preds) == 1 {
		return 0
	}
	bestEst := s.EstimateSelectivity(preds[0].Attr, preds[0].Pred)
	for i := 1; i < len(preds); i++ {
		e := s.EstimateSelectivity(preds[i].Attr, preds[i].Pred)
		better := e < bestEst
		if disjunctive {
			better = e > bestEst
		}
		if better {
			chosen, bestEst = i, e
		}
	}
	return chosen
}

// Slot returns the tail slot of attr, adding one when the plan does not
// read attr yet.
func (pl *Plan) Slot(attr string) int {
	if i := slices.Index(pl.Tails, attr); i >= 0 {
		return i
	}
	pl.Tails = append(pl.Tails, attr)
	return len(pl.Tails) - 1
}

// OtherTail returns the tail column of w that Others[j] is evaluated on.
func (pl *Plan) OtherTail(w Window, j int) []Value { return w.Tails[pl.otherSlot[j]] }

// Window is one positionally aligned fragment of a set: the tail columns
// of the plan's slots (full length, parallel to Plan.Tails), the head column
// they are aligned with (only when the query asked for it, as disjunctions
// do), and the position range [Lo, Hi) the head predicate selects in all of
// them. A full map set answers a query from one window, a partial set
// from one per area.
type Window struct {
	Lo, Hi int
	Head   []Value
	Tails  [][]Value
}

// Finish answers the plan from its aligned windows. A pure read, shared by
// the write path and the read-only path.
func (pl *Plan) Finish(wins []Window, disjunctive bool) Result {
	if disjunctive {
		return pl.Disjunctive(wins)
	}
	return pl.Conjunctive(wins)
}

// Disjunctive finishes a disjunctive plan: per window, mark the tuples
// matching any predicate. A disjunction reads whole maps, and maps of
// different areas share no position space, so the head predicate is tested
// by value on the window's head column.
func (pl *Plan) Disjunctive(wins []Window) Result {
	marks := make([]*bitvec.Vector, len(wins))
	for k, w := range wins {
		bv := bitvec.New(w.Hi - w.Lo)
		for i := w.Lo; i < w.Hi; i++ {
			if pl.Head.Pred.Matches(w.Head[i]) {
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

// Conjunctive finishes a conjunctive plan: per window, refine [Lo, Hi) with
// a bit vector for the secondary predicates (select_create_bv /
// select_refine_bv), then reconstruct the projections. A pure read over
// aligned tails, shared by the write path and the read-only path.
func (pl *Plan) Conjunctive(wins []Window) Result {
	if len(pl.Others) == 0 {
		return pl.Reconstruct(wins, nil)
	}
	marks := make([]*bitvec.Vector, len(wins))
	for i, w := range wins {
		for j, ap := range pl.Others {
			tail := pl.OtherTail(w, j)
			if j == 0 {
				marks[i] = SelectCreateBV(tail, w.Lo, w.Hi, ap.Pred)
			} else {
				SelectRefineBV(tail, w.Lo, w.Hi, ap.Pred, marks[i])
			}
		}
	}
	return pl.Reconstruct(wins, marks)
}

// Reconstruct is operator sideways.reconstruct over a list of windows:
// marks[i] selects the qualifying tuples of window i (bit 0 = position Lo);
// nil marks select all of [Lo, Hi). Each output column is sized once and
// each distinct projection assigned once. It is the one place the map-set
// stores materialize an answer.
//
// The answer is written into pl.Into when the caller lends one: a column of
// a projected attribute is reused whole if it is large enough, and the
// columns of attributes the plan does not project are dropped. The answer
// aliases the lent memory, so it is valid until the caller lends that Result
// again. Without one, every column is fresh and exactly the answer's length.
func (pl *Plan) Reconstruct(wins []Window, marks []*bitvec.Vector) Result {
	n := 0
	for i, w := range wins {
		if marks == nil {
			n += w.Hi - w.Lo
		} else {
			n += marks[i].Count()
		}
	}
	var fresh Result
	res := pl.Into
	if res == nil {
		res = &fresh
	}
	if res.Cols == nil {
		res.Cols = make(map[string][]Value, len(pl.projs))
	}
	for attr := range res.Cols {
		if !slices.Contains(pl.projs, attr) {
			delete(res.Cols, attr)
		}
	}
	res.N = n
	for i, attr := range pl.projs {
		if slices.Contains(pl.projs[:i], attr) {
			continue
		}
		slot := slices.Index(pl.Tails, attr)
		out := res.Cols[attr]
		if out == nil || cap(out) < n {
			out = make([]Value, n)
		}
		out = out[:n]
		res.Cols[attr] = out
		at := 0
		for i, w := range wins {
			area := w.Tails[slot][w.Lo:w.Hi]
			if marks == nil {
				at += copy(out[at:], area)
			} else {
				at += marks[i].Gather(out[at:], area)
			}
		}
	}
	return *res
}

// closedInterval normalises pred to the closed interval [lo, hi] the
// word-at-a-time kernels compare against; lo > hi when nothing can match.
func closedInterval(pred store.Pred) (lo, hi Value) {
	lo, hi = pred.Lo, pred.Hi
	if !pred.LoIncl {
		if lo == math.MaxInt64 {
			return 1, 0
		}
		lo++
	}
	if !pred.HiIncl {
		if hi == math.MinInt64 {
			return 1, 0
		}
		hi--
	}
	return lo, hi
}

// SelectCreateBV is operator sideways.select_create_bv step (8): create a
// bit vector for area [lo, hi) of an aligned map tail under pred.
func SelectCreateBV(tail []Value, lo, hi int, pred store.Pred) *bitvec.Vector {
	vlo, vhi := closedInterval(pred)
	return bitvec.FromRange(tail[lo:hi], vlo, vhi)
}

// SelectRefineBV is operator sideways.select_refine_bv step (8): clear bits
// of tuples in [lo, hi) that fail pred.
func SelectRefineBV(tail []Value, lo, hi int, pred store.Pred, bv *bitvec.Vector) {
	vlo, vhi := closedInterval(pred)
	bv.AndRange(tail[lo:hi], vlo, vhi)
}
