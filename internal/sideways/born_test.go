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

// Under partial maps an area's span of H_A leads the area until its first
// update: every chunk is a tail, gathered through the span's keys at the
// span's cursor and swapped along with every crack the span replays. At the
// first update each chunk gets a copy of the span's head and index, and
// from then on aligns on its own. FuzzBornAligned pins both halves: after
// every op, each tail-only chunk equals its base column gathered through the
// span's keys, position by position, at the span's cursor; and each chunk
// given a head at the first update, or created after it, starts with the
// span's head and boundaries at the point where the span stopped.
//
// Under full maps the maps one query creates before the area's first update
// form a head group: the first owns the head and index, the others are
// tails that follow it, until the first update gives each a copy or the
// owner's eviction hands its head to the next. After every op each full
// map, its leader's head paired with its own tail, must equal a solo pairs
// built from the base columns that replays the area's tape to the map's
// cursor, boundaries included.

const (
	bornRows   = 160
	bornDomain = 48
)

// bornCounts is what one stream exercised.
type bornCounts struct {
	born, unled int
	// bornStopped counts chunks created in an area whose span an update
	// had stopped, which then replay the tape's updates themselves.
	bornStopped int
	// Under full maps: tails born into a head group, tails given a copy
	// of their owner's head when the area's first update split the group,
	// and heads handed on by an evicted owner.
	follower, split, handed int
}

func (c *bornCounts) add(o bornCounts) {
	c.born += o.born
	c.unled += o.unled
	c.bornStopped += o.bornStopped
	c.follower += o.follower
	c.split += o.split
	c.handed += o.handed
}

// boundaries lists an index's live boundaries in order.
func boundaries(ix *crackindex.Index) (out []string) {
	ix.Walk(func(b crackindex.Bound, pos int) { out = append(out, fmt.Sprintf("%v@%d", b, pos)) })
	return out
}

// checkLedChunk reports how tail-only chunk m of led area w differs from
// its base column gathered through the span's keys at the span's cursor,
// or "" when it does not.
func checkLedChunk(s *Store, w *area, m *Map) string {
	if m.pairs.Head != nil || m.pairs.Idx != nil {
		return "keeps a head or an index"
	}
	if m.cursor != w.spanCursor {
		return fmt.Sprintf("at cursor %d, its span at %d", m.cursor, w.spanCursor)
	}
	if len(m.pairs.Tail) != len(w.span.Tail) {
		return fmt.Sprintf("%d tuples, its span %d", len(m.pairs.Tail), len(w.span.Tail))
	}
	for i, k := range w.span.Tail {
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

// checkStoppedChunk reports how chunk m, just given its head at its area's
// first update or just created after it, differs from the span where it
// stopped, or "" when it does not.
func checkStoppedChunk(w *area, m *Map) string {
	switch {
	case m.pairs.Head == nil:
		return "has no head"
	case m.cursor != w.spanCursor:
		return fmt.Sprintf("at cursor %d, the span stopped at %d", m.cursor, w.spanCursor)
	case !slices.Equal(m.pairs.Head, w.span.Head):
		return "head differs from the span's"
	case !slices.Equal(boundaries(m.pairs.Idx), boundaries(w.span.Idx)):
		return fmt.Sprintf("boundaries %v, the span has %v", boundaries(m.pairs.Idx), boundaries(w.span.Idx))
	}
	return ""
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
	s.observe = func(ev event, w *area, m *Map) {
		var msg string
		switch {
		case ev == evHanded:
			got.handed++
		case w != nil && w.span == nil:
			// A full map: every op ends with checkSoloReplay.
			if ev == evUnled {
				got.split++
			} else if ev == evBorn && m.pairs.Head == nil {
				got.follower++
			}
		case ev == evUnled:
			got.unled++
			msg = checkStoppedChunk(w, m)
		case ev == evBorn:
			if w.led() {
				got.born++
				msg = checkLedChunk(s, w, m)
			} else {
				got.bornStopped++
				msg = checkStoppedChunk(w, m)
			}
		}
		if msg != "" && failure == "" {
			failure = fmt.Sprintf("map %s of area %d, event %d: %s", m.tailAttr, w.id, ev, msg)
		}
	}

	for i := 0; i+2 < len(ops); i += 3 {
		kind, a, b := ops[i]%20, Value(ops[i+1])%(bornDomain+2)-1, Value(ops[i+2])%(bornDomain/2)
		ctx := fmt.Sprintf("op %d (kind %d)", i/3, kind)
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
				if w.span == nil {
					for tail, m := range w.maps {
						if msg := checkSoloReplay(s, set, w, m); msg != "" {
							t.Fatalf("%s: full map %s of set %s at cursor %d: %s", ctx, tail, attr, m.cursor, msg)
						}
					}
					continue
				}
				if !w.span.CheckPieces() {
					t.Fatalf("%s: the span of area %s/%d violates piece invariants", ctx, attr, w.id)
				}
				for tail, m := range w.maps {
					if w.led() {
						if msg := checkLedChunk(s, w, m); msg != "" {
							t.Fatalf("%s: map %s of led area %s/%d: %s", ctx, tail, attr, w.id, msg)
						}
					} else if m.cursor < w.spanCursor {
						t.Fatalf("%s: map %s of area %s/%d at cursor %d, behind where its span stopped, %d", ctx, tail, attr, w.id, m.cursor, w.spanCursor)
					}
				}
			}
		}
	}
	return got
}

// bornSeeds are the committed inputs: random streams under every store
// set-up, partial and full, and two that stop a span under a budget. In
// both, A∈[10,30] is fetched with B, C and D, whose tails fit the budget of
// three quarters of the rows, and cracked with B and C; then a tuple is
// inserted into the area. In the first a query of B alone merges it: making room for B's
// head evicts D, and for C's head C itself. In the second a disjunction
// merges it, and a crack of B and C creates a chunk in the stopped area.
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
// FuzzBornAligned reach every way a chunk or a full map gets its layout: a
// tail created in a led area, a head given at the area's first update, and
// a chunk created after it; a tail born into a head group, a head copied
// when the area's first update splits the group, and a head handed on by
// an evicted owner.
func TestBornAlignedSeedsCoverEveryBranch(t *testing.T) {
	var total bornCounts
	for _, seed := range bornSeeds() {
		total.add(checkBornAligned(t, seed))
	}
	t.Logf("%+v", total)
	if total.born == 0 || total.unled == 0 || total.bornStopped == 0 ||
		total.follower == 0 || total.split == 0 || total.handed == 0 {
		t.Fatalf("the seeds miss a branch: %+v", total)
	}
}
