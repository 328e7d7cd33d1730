package sideways

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// Under partial maps an area's span of H_A leads the area for its whole
// life: every chunk is a tail, gathered through the span's keys at the
// span's cursor, and every tape entry, crack, insert or delete, is decided
// on the span and moves every chunk's tail with it. Just before the area's
// first update merges, the span takes columns of its own. FuzzBornAligned
// pins it: after every op, and at every chunk's birth, each chunk equals its
// base column gathered through the span's keys, position by position, at
// the span's cursor.
//
// Under full maps the maps one query creates form a head group: the first
// owns the head and index, the others are tails that follow it through
// every tape entry, until the owner's eviction hands its head to the next.
// After every op each full map, its leader's head paired with its own tail,
// must equal a solo pairs built from the base columns that replays the
// area's tape to the map's cursor, boundaries included.

const (
	bornRows   = 160
	bornDomain = 48
)

// bornCounts is what one stream exercised.
type bornCounts struct {
	// Tails that replayed an insert or delete entry: in a head group, and
	// in an area of H_A.
	groupUpdate, ledUpdate int
	// Spans that took columns of their own, tails born into a head group,
	// and heads handed on by an evicted owner.
	owned, follower, handed int
}

func (c *bornCounts) add(o bornCounts) {
	c.groupUpdate += o.groupUpdate
	c.ledUpdate += o.ledUpdate
	c.owned += o.owned
	c.follower += o.follower
	c.handed += o.handed
}

// boundaries lists an index's live boundaries in order.
func boundaries(ix *crackindex.Index) (out []string) {
	ix.Walk(func(b crackindex.Bound, pos int) { out = append(out, fmt.Sprintf("%v@%d", b, pos)) })
	return out
}

// checkLedChunk reports how tail-only chunk m of area w differs from its
// base column gathered through the span's keys at the span's cursor, or ""
// when it does not.
func checkLedChunk(s *Store, w *area, m *Map) string {
	sp := w.span.pairs
	if m.pairs.Head != nil || m.pairs.Idx != nil {
		return "keeps a head or an index"
	}
	if m.cursor != w.span.cursor {
		return fmt.Sprintf("at cursor %d, its span at %d", m.cursor, w.span.cursor)
	}
	if len(m.pairs.Tail) != len(sp.Tail) {
		return fmt.Sprintf("%d tuples, its span %d", len(m.pairs.Tail), len(sp.Tail))
	}
	for i, k := range sp.Tail {
		want := k
		if m.tailAttr != "" {
			want = s.rel.MustColumn(m.tailAttr).Vals[k]
		}
		if m.pairs.Tail[i] != want {
			return fmt.Sprintf("position %d holds %d, the span's key %d gives %d", i, m.pairs.Tail[i], k, want)
		}
	}
	return ""
}

// updates reports whether tape entries [from, to) hold an insert or delete.
func updates(t Tape, from, to int) bool {
	return slices.ContainsFunc(t[from:max(from, to)], func(e entry) bool { return e.kind != entryCrack })
}

// checkSoloReplay reports how full map m of whole-domain area w differs
// from a solo pairs built from the base columns that replays w's tape to
// m's cursor, or "" when it does not: m's leader's head (its own or its
// group owner's) and boundaries against the solo head and boundaries, m's
// tail against the solo tail.
func checkSoloReplay(s *Store, set *Set, w *area, m *Map) string {
	var col *store.Column
	tail := keyRange(w.lo, w.hi)
	if m.tailAttr != "" {
		col = s.rel.MustColumn(m.tailAttr)
		tail = slices.Clone(col.Vals[w.lo:w.hi])
	}
	solo := crack.WrapPairs(slices.Clone(set.pend.head.Vals[w.lo:w.hi]), tail)
	solo.Policy = set.policy
	cursor := 0
	w.tape.ReplayJoint([]Member{{Pairs: solo, Cursor: &cursor, Tail: col}}, m.cursor, set.pend.head)
	lead := m.Lead()
	switch {
	case !slices.Equal(lead.Head, solo.Head):
		return "its leader's head differs from the solo replay's"
	case !slices.Equal(m.pairs.Tail, solo.Tail):
		return "its tail differs from the solo replay's"
	case !slices.Equal(boundaries(lead.Idx), boundaries(solo.Idx)):
		return fmt.Sprintf("boundaries %v, the solo replay has %v", boundaries(lead.Idx), boundaries(solo.Idx))
	}
	return ""
}

// checkBornAligned runs the op stream data codes on a partial or a
// full-map store, checks every chunk against its area's span or every full
// map against a solo replay, and every answer against a scan, and returns
// what the stream exercised.
//
// data[0] sets the store up: bit 5 full maps instead of partial ones, bits
// 2-3 the budget (none, or 1, 2 or 3 times the rows over four under
// partial maps, the rows under full maps), bit 4 the capped policy; bits
// 0-1 are unused. Then
// every three bytes are an op: a kind byte and two more. Kinds 0-15 query A
// over a value range the two bytes give and project one of six sets of B,
// C and D, conjunctively or disjunctively with a predicate on B (a
// disjunction reads heads); 16 and 17 insert, 18 deletes and 19 does
// nothing.
func checkBornAligned(t *testing.T, data []byte) (got bornCounts) {
	if len(data) == 0 {
		return got
	}
	cfg, ops := data[0], data[1:]
	rng := rand.New(rand.NewSource(int64(cfg)))
	rel := buildRel(rng, bornRows, []string{"A", "B", "C", "D"}, bornDomain)
	s, budget := NewPartialStore(rel), bornRows/4
	if cfg&32 != 0 {
		s, budget = NewStore(rel), bornRows
	}
	s.Budget = int(cfg>>2&3) * budget
	if cfg&16 != 0 {
		s.Policy = crack.Policy{Kind: crack.Capped, Cap: 8}
	}
	nv := &naive{rel: rel, dead: map[int]bool{}}
	var live []int
	for k := 0; k < bornRows; k++ {
		live = append(live, k)
	}

	var failure string
	from := map[*Map]int{} // each map's cursor when the op began, or at its birth
	s.observe = func(ev event, w *area, m *Map) {
		var msg string
		switch {
		case ev == evHanded:
			got.handed++
		case ev == evOwned:
			got.owned++
		case ev == evBorn:
			from[m] = m.cursor
			if w.span != nil {
				msg = checkLedChunk(s, w, m)
			} else if m.pairs.Head == nil {
				got.follower++ // a full map: every op ends with checkSoloReplay
			}
		}
		if msg != "" && failure == "" {
			failure = fmt.Sprintf("map %s of area %d, event %d: %s", m.tailAttr, w.id, ev, msg)
		}
	}

	for i := 0; i+2 < len(ops); i += 3 {
		kind, a, b := ops[i]%20, Value(ops[i+1])%(bornDomain+2)-1, Value(ops[i+2])%(bornDomain/2)
		ctx := fmt.Sprintf("op %d (kind %d)", i/3, kind)
		clear(from)
		for _, set := range s.sets {
			for _, w := range set.areas {
				for _, m := range w.maps {
					from[m] = m.cursor
				}
			}
		}
		switch kind {
		case 16, 17:
			vals := []Value{a, Value(rng.Int63n(bornDomain)), Value(rng.Int63n(bornDomain)), Value(rng.Int63n(bornDomain))}
			live = append(live, s.Insert(vals...))
		case 18:
			if len(live) > 0 {
				j := (int(ops[i+1])<<8 | int(ops[i+2])) % len(live)
				k := live[j]
				live = slices.Delete(live, j, j+1)
				s.Delete(k)
				nv.dead[k] = true
			}
		case 19:
		default:
			projs := [][]string{{"B"}, {"C"}, {"D"}, {"B", "C"}, {"C", "D"}, {"B", "C", "D"}}[kind%6]
			preds := []AttrPred{{Attr: "A", Pred: store.Range(a, a+b)}}
			disjunctive := kind >= 12
			if disjunctive {
				preds = append(preds, AttrPred{Attr: "B", Pred: store.Range(b, b+2)})
			}
			res := s.MultiSelect(preds, projs, disjunctive)
			equalRows(t, resultRows(res, projs), nv.rows(preds, projs, disjunctive), ctx)
		}
		if failure != "" {
			t.Fatalf("%s: %s", ctx, failure)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for attr, set := range s.sets {
			for _, w := range set.areas {
				for tail, m := range w.maps {
					if c, ok := from[m]; ok && m.pairs.Head == nil && updates(w.tape, c, m.cursor) {
						if w.span != nil {
							got.ledUpdate++
						} else {
							got.groupUpdate++
						}
					}
					if w.span != nil {
						if msg := checkLedChunk(s, w, m); msg != "" {
							t.Fatalf("%s: map %s of area %s/%d: %s", ctx, tail, attr, w.id, msg)
						}
					} else if msg := checkSoloReplay(s, set, w, m); msg != "" {
						t.Fatalf("%s: full map %s of set %s at cursor %d: %s", ctx, tail, attr, m.cursor, msg)
					}
				}
				if w.span != nil && !w.span.pairs.CheckPieces() {
					t.Fatalf("%s: the span of area %s/%d violates piece invariants", ctx, attr, w.id)
				}
			}
		}
	}
	return got
}

// bornSeeds are the committed inputs: random streams under every store
// set-up, partial and full, and two hand-written ones under partial maps
// with a budget of three quarters of the rows. In both, A∈[10,30] is
// fetched with B, C and D, whose tails fit the budget, and cracked with B
// and C; then a tuple is inserted into the area. In the first a query of B
// alone merges it: making room for the span's own columns evicts C and D,
// and B follows the span through the insert. In the second a disjunction
// merges it, fetching the areas on either side with a B chunk each; B
// follows the span through the insert, and the pinned chunks and the span
// then exceed the budget. A crack of B and C creates a C chunk in the
// updated area, gathered through the span's own keys at its cursor, and
// making room for it un-fetches both side areas.
func bornSeeds() [][]byte {
	seeds := [][]byte{
		{12, 5, 11, 20, 3, 13, 16, 16, 20, 0, 0, 11, 20},
		{13, 5, 11, 20, 3, 13, 16, 17, 15, 0, 12, 11, 20, 19, 0, 0, 3, 14, 10},
	}
	rng := rand.New(rand.NewSource(36))
	for cfg := 0; cfg < 64; cfg++ {
		data := []byte{byte(cfg)}
		for i := 0; i < 3*120; i++ {
			data = append(data, byte(rng.Intn(256)))
		}
		seeds = append(seeds, data)
	}
	return seeds
}

func FuzzBornAligned(f *testing.F) {
	for _, seed := range bornSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkBornAligned(t, data) })
}

// TestBornAlignedSeedsCoverEveryBranch: the committed inputs of
// FuzzBornAligned reach every way a tail gets its layout: an update
// replayed on a tail that follows a group owner, and on a chunk that
// follows its span; a span that takes columns of its own; a tail born into
// a head group; and a head handed on by an evicted owner.
func TestBornAlignedSeedsCoverEveryBranch(t *testing.T) {
	var total bornCounts
	for _, seed := range bornSeeds() {
		total.add(checkBornAligned(t, seed))
	}
	t.Logf("%+v", total)
	if total.groupUpdate == 0 || total.ledUpdate == 0 || total.owned == 0 ||
		total.follower == 0 || total.handed == 0 {
		t.Fatalf("the seeds miss a branch: %+v", total)
	}
}
