package engine

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
)

// Snapshot wraps e for concurrent serving with lock-free snapshot reads:
// read-only queries traverse an immutable version of the cracked state and
// never wait for a crack, where Concurrent stalls every reader behind a
// cold crack's write section. It is implemented for SelCrack, whose cracker
// columns (its sets' key maps, with their pending updates, over append-only
// base columns) version at piece granularity; the SelCrack engine stays the
// only writer, so it keeps its layout, pending updates and kernel counters.
// Engines that already guard themselves are returned unchanged, and other
// kinds fall back to Concurrent(e).
func Snapshot(e Engine) Engine {
	if guarded(e) {
		return e
	}
	if sc, ok := e.(*selCrackEngine); ok {
		return newSnapEngine(sc)
	}
	return Concurrent(e)
}

// snapEngine is the multi-version engine behind Snapshot. Writers
// (cracking queries, Insert, Delete) serialize on mu, run the wrapped
// SelCrack engine and publish a version of its cracker columns before
// returning. Readers (QueryRO, and Query's fast path) take no lock: they
// run selection cracking's plan (crackQuery) over what they load. That
// leans on three invariants:
//
//   - Base columns are append-only (deletes are tombstones, read by writers
//     only), and bases holds their slice headers, republished under mu
//     after every append and before any version that holds the new key.
//   - A published keyVersion is never written.
//   - The cols map is copy-on-write: every publish stores a fresh one.
type snapEngine struct {
	mu sync.Mutex      // serializes writers; readers never take it
	sc *selCrackEngine // the only writer; used under mu alone

	cols      atomic.Pointer[map[string]*keyVersion]
	bases     atomic.Pointer[map[string][]Value]
	kernel    atomic.Pointer[KernelReport] // the store's kernel section at the last publish
	published atomic.Uint64                // publishes: one per write
}

// keyVersion is one immutable version of a cracker column: cuts[i]
// separates pieces[i] (values left of the cut) from pieces[i+1], and each
// piece holds the keys of its tuples, in no particular order. ins and del
// are the set's pending updates, which readers apply.
type keyVersion struct {
	cuts   []crackindex.Bound
	pieces [][]Value
	n      int             // tuples in pieces
	ins    []pendingInsert // sorted by value
	del    map[Value]bool
}

type pendingInsert struct{ key, val Value }

// maxPending bounds the pending updates a reader applies per gather: a
// write that leaves more pending insertions or deletions in a column merges
// all of them, so a sustained insert stream costs a narrow read little.
const maxPending = 128

// The edges of the value domain. A predicate bound there selects from the
// first or the last piece: a range crack resolves an edge bound to the start
// or the end of the key map without cutting there (crack.Pairs.CrackRange),
// and a piece beyond an edge would be empty.
var domainLo, domainHi = sideways.FullRange.LowerBound(), sideways.FullRange.UpperBound()

func newSnapEngine(sc *selCrackEngine) *snapEngine {
	e := &snapEngine{sc: sc}
	e.cols.Store(&map[string]*keyVersion{})
	e.publishBasesLocked()
	e.publishLocked(nil)
	return e
}

func (e *snapEngine) Kind() Kind { return SelCrack }

// publishBasesLocked re-publishes the base-column slice headers. It runs
// under mu, before any version holding a new key is published, so a reader
// finds every key's row in the bases it loads after the version.
func (e *snapEngine) publishBasesLocked() {
	rel := e.sc.st.Relation()
	nb := make(map[string][]Value, len(rel.Order))
	for _, a := range rel.Order {
		nb[a] = rel.MustColumn(a).Vals
	}
	e.bases.Store(&nb)
}

// valBound is the bound just before value v: it orders before exactly the
// cuts v lies left of.
func valBound(v Value) crackindex.Bound { return crackindex.Bound{V: v, Incl: true} }

// pieceAt returns the index of the piece between cuts that bound b falls
// into: the piece right of b when b is a cut.
func pieceAt(cuts []crackindex.Bound, b crackindex.Bound) int {
	return sort.Search(len(cuts), func(i int) bool { return b.Less(cuts[i]) })
}

// splitOut copies the pieces key map km holds between its cuts lo and hi,
// one fresh slice each, with the cuts that separate them. A nil lo or hi
// stands for the edge of the value domain. Range cracks never cut there,
// but a stochastic policy pivot sampled from MinInt64 values cuts at the
// lower edge, so the edge cuts are looked up all the same.
func splitOut(km *crack.Pairs, lo, hi *crackindex.Bound) (sub keyVersion) {
	from, to, l, h := 0, km.Len(), domainLo, domainHi
	if lo != nil {
		l = *lo
		from, _ = km.Idx.Lookup(l)
	}
	if hi != nil {
		h = *hi
		to, _ = km.Idx.Lookup(h)
	}
	split := func(b crackindex.Bound, pos int) {
		sub.pieces = append(sub.pieces, slices.Clone(km.Tail[from:pos]))
		sub.cuts = append(sub.cuts, b)
		from = pos
	}
	if pos, ok := km.Idx.Lookup(domainLo); ok && lo == nil && (hi == nil || *hi != domainLo) {
		split(domainLo, pos)
	}
	km.Idx.WalkRange(l, h, split)
	if pos, ok := km.Idx.Lookup(domainHi); ok && hi == nil && (lo == nil || *lo != domainHi) {
		split(domainHi, pos)
	}
	sub.pieces = append(sub.pieces, slices.Clone(km.Tail[from:to]))
	return sub
}

// publishLocked publishes a version of every cracker column as the store
// now holds it, and the store's kernel section; cracked lists the
// predicates the write cracked with. A column whose backlog exceeds
// maxPending first merges all of it through the store, which cracks
// nothing.
//
// A version shares every piece of the one it replaces except those a
// cracked bound or a merged update fell into, which splitOut copies: a
// crack permutes only the piece it splits, and a ripple insert or delete
// moves tuples of other pieces without changing which tuples they hold. If
// the key map has a cut anywhere else, every piece is copied. Must run
// under mu, after publishBasesLocked when a row was appended.
func (e *snapEngine) publishLocked(cracked []AttrPred) {
	st := e.sc.st
	rel := st.Relation()
	cols := *e.cols.Load()
	next := maps.Clone(cols)
	whole := &keyVersion{pieces: make([][]Value, 1)} // replacing its one piece copies everything
	for _, attr := range rel.Order {
		km, ins, del := st.KeyMap(attr)
		if km == nil {
			continue
		}
		head := rel.MustColumn(attr).Vals
		old, touched := cols[attr], []int{0}
		var merged []Value // the values of the updates the write merged
		if old == nil {
			old = whole
		} else {
			// Insertions the ledger no longer holds (unless a delete
			// cancelled them), and deletions it no longer holds.
			pending := make(map[Value]bool, len(ins))
			for _, k := range ins {
				pending[Value(k)] = true
			}
			for _, t := range old.ins {
				if !pending[t.key] && !rel.IsDeleted(int(t.key)) {
					merged = append(merged, t.val)
				}
			}
			for k := range old.del {
				if !del[int(k)] {
					merged = append(merged, head[k])
				}
			}
			touched = touched[:0]
			for _, ap := range cracked {
				if ap.Attr == attr {
					touched = append(touched, pieceAt(old.cuts, ap.Pred.LowerBound()), pieceAt(old.cuts, ap.Pred.UpperBound()))
				}
			}
		}
		if len(ins) > maxPending || len(del) > maxPending {
			for _, k := range ins {
				merged = append(merged, head[k])
			}
			for k := range del {
				merged = append(merged, head[k])
			}
			st.Keys(attr, sideways.FullRange)
			km, ins, del = st.KeyMap(attr)
		}
		for _, val := range merged {
			touched = append(touched, pieceAt(old.cuts, valBound(val)))
		}
		slices.Sort(touched)
		touched = slices.Compact(touched)
		subs, added := make([]keyVersion, len(touched)), 0
		for x, t := range touched {
			var lo, hi *crackindex.Bound
			if t > 0 {
				lo = &old.cuts[t-1]
			}
			if t < len(old.cuts) {
				hi = &old.cuts[t]
			}
			subs[x] = splitOut(km, lo, hi)
			added += len(subs[x].cuts)
		}
		if len(old.cuts)+added != km.Idx.Len() {
			old, touched, subs = whole, []int{0}, []keyVersion{splitOut(km, nil, nil)}
		}

		v := &keyVersion{cuts: old.cuts, pieces: old.pieces, n: km.Len(), ins: old.ins, del: old.del}
		if len(touched) > 0 {
			v.cuts = make([]crackindex.Bound, 0, km.Idx.Len())
			v.pieces = make([][]Value, 0, km.Idx.Len()+1)
			p := 0 // the next piece of old to share
			for x, t := range touched {
				v.cuts = append(append(v.cuts, old.cuts[p:t]...), subs[x].cuts...)
				v.pieces = append(append(v.pieces, old.pieces[p:t]...), subs[x].pieces...)
				if t < len(old.cuts) {
					v.cuts = append(v.cuts, old.cuts[t])
				}
				p = t + 1
			}
			v.cuts = append(v.cuts, old.cuts[min(p, len(old.cuts)):]...)
			v.pieces = append(v.pieces, old.pieces[p:]...)
		}
		// A write adds one pending update, cancels one or merges some: the
		// ledger is unchanged when nothing merged and its sizes are.
		if len(merged) > 0 || len(ins) != len(v.ins) {
			v.ins = make([]pendingInsert, len(ins))
			for i, k := range ins {
				v.ins[i] = pendingInsert{key: Value(k), val: head[k]}
			}
			slices.SortStableFunc(v.ins, func(a, b pendingInsert) int { return cmp.Compare(a.val, b.val) })
		}
		if len(merged) > 0 || len(del) != len(v.del) {
			v.del = make(map[Value]bool, len(del))
			for k := range del {
				v.del[Value(k)] = true
			}
		}
		next[attr] = v
	}
	e.cols.Store(&next)
	e.kernel.Store(kernelSection(st.Kernel()).Kernel)
	e.published.Add(1)
}

func (e *snapEngine) Insert(vals ...Value) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := e.sc.Insert(vals...)
	e.publishBasesLocked() // before any column version can expose the key
	e.publishLocked(nil)
	return key
}

func (e *snapEngine) Delete(key int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rel := e.sc.st.Relation()
	if rel.IsDeleted(key) {
		return
	}
	e.sc.Delete(key)
	if rel.IsDeleted(key) {
		e.publishLocked(nil)
	}
}

// Storage sums the tuples of the published pieces.
func (e *snapEngine) Storage() int {
	total := 0
	for _, v := range *e.cols.Load() {
		total += v.n
	}
	return total
}

// area returns the pieces [i, j) pred selects, ok only when both its bounds
// are cuts or domain edges.
func (v *keyVersion) area(pred store.Pred) (i, j int, ok bool) {
	cut := func(b crackindex.Bound) (int, bool) {
		k := sort.Search(len(v.cuts), func(k int) bool { return !v.cuts[k].Less(b) })
		return k + 1, k < len(v.cuts) && v.cuts[k] == b
	}
	if lb := pred.LowerBound(); lb != domainLo {
		if i, ok = cut(lb); !ok {
			return 0, 0, false
		}
	}
	j = len(v.pieces)
	if ub := pred.UpperBound(); ub != domainHi {
		if j, ok = cut(ub); !ok {
			return 0, 0, false
		}
	}
	return i, max(i, j), true
}

// gatherRO answers one predicate lock-free from the column version it
// loads, or refuses when the writer would crack (no column, or no cut). It
// drops pending deletions and adds the pending insertions pred matches.
func (e *snapEngine) gatherRO(ap AttrPred) ([]Value, bool) {
	v := (*e.cols.Load())[ap.Attr]
	if v == nil {
		return nil, false
	}
	i, j, ok := v.area(ap.Pred)
	if !ok {
		return nil, false
	}
	lb, ub := ap.Pred.LowerBound(), ap.Pred.UpperBound()
	lo := sort.Search(len(v.ins), func(k int) bool { return !valBound(v.ins[k].val).Less(lb) })
	hi := max(lo, sort.Search(len(v.ins), func(k int) bool { return !valBound(v.ins[k].val).Less(ub) }))
	n := hi - lo
	for _, keys := range v.pieces[i:j] {
		n += len(keys)
	}
	dst := make([]Value, 0, n)
	for _, keys := range v.pieces[i:j] {
		if len(v.del) == 0 {
			dst = append(dst, keys...)
			continue
		}
		for _, k := range keys {
			if !v.del[k] {
				dst = append(dst, k)
			}
		}
	}
	for _, t := range v.ins[lo:hi] {
		dst = append(dst, t.key)
	}
	return dst, true
}

// baseRO resolves a base column lock-free. Every call loads the bases
// afresh, after the keys it serves were gathered, so it always holds their
// rows (see publishBasesLocked).
func (e *snapEngine) baseRO(attr string) []Value { return (*e.bases.Load())[attr] }

// QueryRO is selection cracking read-only over published versions.
func (e *snapEngine) QueryRO(q Query) (Result, Cost, bool) {
	return crackQuery(q, e.gatherRO, e.baseRO)
}

func (e *snapEngine) Query(q Query) (Result, Cost) {
	// Fast path: lock-free snapshot read.
	if res, cost, ok := e.QueryRO(q); ok {
		return res, cost
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Double-check: a writer that ran between the two attempts may have
	// cracked the very same range already.
	if res, cost, ok := e.QueryRO(q); ok {
		return res, cost
	}
	var cracked []AttrPred
	res, cost, _ := crackQuery(q, func(ap AttrPred) ([]Value, bool) {
		cracked = append(cracked, ap)
		return e.sc.selectCrack(ap)
	}, e.sc.base)
	e.publishLocked(cracked)
	return res, cost
}

// SnapshotStats is the Snapshot section of a Report: the versions the
// engine's writes published. The section's presence marks a stack whose
// reads take no lock.
type SnapshotStats struct {
	Published uint64 // cols maps published, one per write
}

func (d *SnapshotStats) add(s SnapshotStats) { d.Published += s.Published }

// Report is the kernel section the last write published and the snapshot
// section; neither needs mu, so a scrape never waits for a crack.
func (e *snapEngine) Report() Report {
	k := *e.kernel.Load()
	return Report{Kernel: &k, Snapshot: &SnapshotStats{Published: e.published.Load()}}
}
