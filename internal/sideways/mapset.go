package sideways

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crackstore/internal/bitvec"
	"crackstore/internal/crack"
	"crackstore/internal/store"
)

// This file is the map-set core that does not depend on how a set lays out
// its maps: the base-side state of a store, a set's pending-update ledger,
// the cracker tape, the multi-selection planner, the bit-vector finish and
// the eviction priority of the storage manager.

// Base is the base-side state every map-set store carries: the relation,
// its tombstones, and the pending-update ledgers of the sets built over
// it. The base columns are append-only: inserts are appended immediately
// (keys are dense positions) while cracking structures keep them pending;
// deletes are tombstoned and merged lazily per set.
type Base struct {
	rel        *store.Relation
	tombstones map[int]bool
	ledgers    []*Pending // one per map set

	age     int64             // eviction age: the highest priority evicted so far
	retired crack.KernelStats // kernel work done on structures since evicted

	statsMu        sync.Mutex       // guards colMin/colMax (lazily filled by read-only probes)
	colMin, colMax map[string]Value // cached base column stats for fallback estimation
}

// NewBase wraps rel (not copied).
func NewBase(rel *store.Relation) Base {
	return Base{
		rel:        rel,
		tombstones: make(map[int]bool),
		colMin:     make(map[string]Value),
		colMax:     make(map[string]Value),
	}
}

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

// Touch records one query's use of u. Read-only queries call it
// concurrently: the age only moves under exclusive access, so they all store
// the same one — and none at all while nothing has been evicted since the
// last use, the whole life of an unbudgeted store.
func (b *Base) Touch(u *Usage) {
	if u.usedAt.Load() != b.age {
		u.usedAt.Store(b.age)
	}
	u.access.Add(1)
}

// Retire records the eviction of the structure u describes: the store ages
// to its priority, and the kernel work ks done on it stays counted.
func (b *Base) Retire(u *Usage, ks crack.KernelStats) {
	b.age = max(b.age, u.Priority())
	b.retired.Add(ks)
}

// RetiredKernel returns the kernel counters of every evicted structure.
func (b *Base) RetiredKernel() crack.KernelStats { return b.retired }

// Relation returns the underlying base relation.
func (b *Base) Relation() *store.Relation { return b.rel }

// Insert appends a tuple (values in relation attribute order) to the base
// relation and registers it as pending with every existing map set. It
// returns the new tuple's key.
func (b *Base) Insert(vals ...Value) int {
	b.rel.AppendRow(vals...)
	key := b.rel.NumRows() - 1
	for _, p := range b.ledgers {
		p.ins = append(p.ins, key)
	}
	return key
}

// Delete tombstones the tuple with the given key and registers a pending
// deletion with every existing map set.
func (b *Base) Delete(key int) {
	if b.tombstones[key] {
		return
	}
	b.tombstones[key] = true
	for _, p := range b.ledgers {
		p.noteDelete(key)
	}
}

// IsDeleted reports whether key is tombstoned.
func (b *Base) IsDeleted(key int) bool { return b.tombstones[key] }

// UniformEstimate estimates the number of tuples matching pred on attr from
// the base column's value range alone: the fallback of EstimateSelectivity
// for attributes without cracking knowledge.
func (b *Base) UniformEstimate(attr string, pred store.Pred) int {
	lo, hi := b.colStats(attr)
	n := b.rel.NumRows()
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

func (b *Base) colStats(attr string) (lo, hi Value) {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	if l, ok := b.colMin[attr]; ok {
		return l, b.colMax[attr]
	}
	col := b.rel.MustColumn(attr)
	l, _ := store.Min(col.Vals)
	h, _ := store.Max(col.Vals)
	b.colMin[attr], b.colMax[attr] = l, h
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

// NewPending registers the ledger of a new map set with head attribute attr.
// A set created after updates starts from the full current base (inserts
// included) with all live tombstones pending, which is equivalent to having
// observed the updates as pending from the start. An unknown attribute
// panics before anything is registered.
func NewPending(b *Base, attr string) *Pending {
	p := &Pending{
		head:    b.rel.MustColumn(attr),
		baseLen: b.rel.NumRows(),
		del:     make(map[int]bool, len(b.tombstones)),
	}
	for k := range b.tombstones {
		p.del[k] = true
	}
	b.ledgers = append(b.ledgers, p)
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

// LogInsert appends the ripple-insertion of the tuples with the given keys.
func (t *Tape) LogInsert(keys []int) { *t = append(*t, entry{kind: entryInsert, keys: keys}) }

// LogDelete appends the removal of the given physical positions; keys are
// the tuples they hold.
func (t *Tape) LogDelete(keys, positions []int) {
	*t = append(*t, entry{kind: entryDelete, keys: keys, positions: positions})
}

// CrackAt returns the predicate of entry i when it is a crack.
func (t Tape) CrackAt(i int) (store.Pred, bool) { return t[i].pred, t[i].kind == entryCrack }

// Replay applies entries [from, to) to p. headCol and tailCol are the base
// columns inserted tuples are read from; a nil tailCol stores tuple keys.
func (t Tape) Replay(p *crack.Pairs, from, to int, headCol, tailCol *store.Column) {
	for _, e := range t[from:to] {
		switch e.kind {
		case entryCrack:
			p.CrackRange(e.pred)
		case entryInsert:
			p.RippleInsertKeys(e.keys, headCol, tailCol)
		case entryDelete:
			p.RippleDeleteBatch(e.positions)
		}
	}
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
// member's cursor; that member then joins it, and so on. A crack entry is
// decided on the first member of the group and applied to the rest as
// followers (crack.Pairs.CrackRangeWith). That is layout-identical to
// replaying each member alone, because members at one cursor hold equal
// heads and equal boundaries: the alignment invariant. Insert and delete
// entries are rare and go member by member, each with its own tail column.
// Members at or past to are left alone; the others end with cursor to.
// headCol is the base column of the set's head attribute. ms is reordered.
func (t Tape) ReplayJoint(ms []Member, to int, headCol *store.Column) {
	slices.SortStableFunc(ms, func(a, b Member) int { return cmp.Compare(*a.Cursor, *b.Cursor) })
	if len(ms) == 0 || *ms[0].Cursor >= to {
		return
	}
	var group []Member
	var ps []*crack.Pairs // group's pairs: ps[0] leads, ps[1:] follow
	next := 0             // first member of ms that has not joined
	for at := *ms[0].Cursor; at < to; {
		for next < len(ms) && *ms[next].Cursor == at {
			// A member listed twice must not follow itself: its swaps
			// would cancel.
			if !slices.Contains(ps, ms[next].Pairs) {
				group = append(group, ms[next])
				ps = append(ps, ms[next].Pairs)
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
				for _, m := range group {
					m.Pairs.RippleInsertKeys(e.keys, headCol, m.Tail)
				}
			case entryDelete:
				for _, m := range group {
					m.Pairs.RippleDeleteBatch(e.positions)
				}
			}
		}
		at = stop
	}
	for _, m := range group {
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

// Estimator is the selectivity oracle the planner consults: a store's
// self-organizing histograms with a uniform fallback.
type Estimator interface {
	EstimateSelectivity(attr string, pred store.Pred) int
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
// est; a lone predicate is the head without consulting est.
func PlanMulti(est Estimator, preds []AttrPred, projs []string, disjunctive bool) Plan {
	if len(preds) == 0 {
		panic("sideways: a multi-selection plan requires at least one predicate")
	}
	chosen := choosePred(est, preds, disjunctive)
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
func choosePred(est Estimator, preds []AttrPred, disjunctive bool) int {
	chosen := 0
	if len(preds) == 1 {
		return 0
	}
	bestEst := est.EstimateSelectivity(preds[0].Attr, preds[0].Pred)
	for i := 1; i < len(preds); i++ {
		e := est.EstimateSelectivity(preds[i].Attr, preds[i].Pred)
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

// ReconstructBV is operator sideways.reconstruct step (8): gather the tail
// values whose bit is set; base is the tail offset of bit 0.
func ReconstructBV(tail []Value, base int, bv *bitvec.Vector) []Value {
	out := make([]Value, bv.Count())
	bv.Gather(out, tail[base:base+bv.Len()])
	return out
}
