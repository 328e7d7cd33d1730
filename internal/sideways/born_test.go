package sideways

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// Under partial maps a new chunk is not built at cursor 0 and replayed: it
// is copied from its area's span of H_A, which follows the area's replays.
// FuzzBornAligned pins that this is only a shortcut. Every chunk created or
// re-created must equal, byte for byte in head, tail and index boundaries,
// the chunk the span would give if it had been copied at fetch time and the
// area's tape replayed over the copy up to the new chunk's cursor.

const (
	bornRows   = 160
	bornDomain = 48
)

// bornCounts is what one stream exercised.
type bornCounts struct {
	born, reborn, sibling, rebuild int
	// bornStopped counts chunks created in an area whose span an update
	// had stopped, which then replay the tape's updates themselves.
	bornStopped int
}

func (c *bornCounts) add(o bornCounts) {
	c.born += o.born
	c.reborn += o.reborn
	c.sibling += o.sibling
	c.rebuild += o.rebuild
	c.bornStopped += o.bornStopped
}

// spanCopy is an area's span as it was fetched: H_A's head and keys over
// the span, and H_A's boundaries strictly inside it, rebased to the span.
type spanCopy struct {
	head, keys []Value
	idx        *crackindex.Index
}

func copySpan(set *Set, w *area) spanCopy {
	c := spanCopy{
		head: slices.Clone(set.ha.Head[w.lo:w.hi]),
		keys: slices.Clone(set.ha.Tail[w.lo:w.hi]),
		idx:  crackindex.New(),
	}
	set.ha.Idx.Walk(func(b crackindex.Bound, pos int) {
		if w.loB.Less(b) && b.Less(w.hiB) {
			c.idx.Insert(b, pos-w.lo)
		}
	})
	return c
}

// boundaries lists an index's live boundaries in order.
func boundaries(ix *crackindex.Index) (out []string) {
	ix.Walk(func(b crackindex.Bound, pos int) { out = append(out, fmt.Sprintf("%v@%d", b, pos)) })
	return out
}

// replayedChunk is the chunk for m's tail attribute that the fetch-time copy
// c of m's area gives when the area's tape is replayed over it up to m's
// cursor. The tape up to there must hold cracks only.
func replayedChunk(t *testing.T, s *Store, c spanCopy, m *Map) (head, tail []Value, idx []string) {
	t.Helper()
	for i := 0; i < m.cursor; i++ {
		if _, isCrack := m.w.tape.CrackAt(i); !isCrack {
			t.Fatalf("map %s of area %d born at cursor %d past the update entry %d", m.tailAttr, m.w.id, m.cursor, i)
		}
	}
	ref := crack.WrapPairs(slices.Clone(c.head), slices.Clone(c.keys))
	ref.Idx, ref.Policy = c.idx.Clone(), m.set.policy
	m.w.tape.Replay(ref, 0, m.cursor, nil, nil)
	tail = ref.Tail
	if m.tailAttr != "" {
		vals := s.rel.MustColumn(m.tailAttr).Vals
		for i, k := range tail {
			tail[i] = vals[k]
		}
	}
	return ref.Head, tail, boundaries(ref.Idx)
}

// checkBornAligned runs the op stream data codes on a partial store, checks
// every chunk born or reborn against replay and every answer against a
// scan, and returns what the stream exercised.
//
// data[0] sets the store up: bits 0-1 the idle queries before a head is
// dropped (0 never), bits 2-3 the budget (none, or 1, 2 or 3 times the rows
// over four), bit 4 the capped policy. Then every three bytes are an op: a
// kind byte and two more. Kinds 0-15 query A over a value range the two
// bytes give and project one of six sets of B, C and D, conjunctively or
// disjunctively with a predicate on B (a disjunction reads heads); 16 and
// 17 insert, 18 deletes and 19 drops every head.
func checkBornAligned(t *testing.T, data []byte) (got bornCounts) {
	if len(data) == 0 {
		return got
	}
	cfg, ops := data[0], data[1:]
	rng := rand.New(rand.NewSource(int64(cfg)))
	rel := buildRel(rng, bornRows, []string{"A", "B", "C", "D"}, bornDomain)
	s := NewPartialStore(rel)
	s.HeadDropIdleQueries = int(cfg & 3)
	s.Budget = int(cfg>>2&3) * bornRows / 4
	if cfg&16 != 0 {
		s.Policy = crack.Policy{Kind: crack.Capped, Cap: 8}
	}
	nv := &naive{rel: rel, dead: map[int]bool{}}
	var live []int
	for k := 0; k < bornRows; k++ {
		live = append(live, k)
	}

	fetched := make(map[*area]spanCopy)
	var failure string
	s.observe = func(ev event, w *area, m *Map) {
		switch ev {
		case evFetch:
			fetched[w] = copySpan(setOf(s, w), w)
			return
		case evSibling:
			got.sibling++
			return
		case evRebuild:
			got.rebuild++
			return
		case evBorn:
			got.born++
			if w.spanStop != math.MaxInt {
				got.bornStopped++
			}
		case evReborn:
			got.reborn++
		}
		head, tail, idx := replayedChunk(t, s, fetched[w], m)
		switch {
		case failure != "":
		case !slices.Equal(m.pairs.Head, head):
			failure = fmt.Sprintf("map %s of area %d at cursor %d: head differs from replay", m.tailAttr, w.id, m.cursor)
		case !slices.Equal(m.pairs.Tail, tail):
			failure = fmt.Sprintf("map %s of area %d at cursor %d: tail differs from replay", m.tailAttr, w.id, m.cursor)
		case !slices.Equal(boundaries(m.pairs.Idx), idx):
			failure = fmt.Sprintf("map %s of area %d at cursor %d: boundaries %v, replay has %v", m.tailAttr, w.id, m.cursor, boundaries(m.pairs.Idx), idx)
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
			s.DropHead()
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
				if w.span.Stats.Visited != 0 {
					t.Fatalf("%s: the span of area %s/%d led a replay: %+v", ctx, attr, w.id, w.span.Stats)
				}
				if !w.span.CheckPieces() {
					t.Fatalf("%s: the span of area %s/%d violates piece invariants", ctx, attr, w.id)
				}
				for tail, m := range w.maps {
					if w.following() && m.cursor > w.spanCursor {
						t.Fatalf("%s: map %s of area %s/%d at cursor %d, past its span's %d", ctx, tail, attr, w.id, m.cursor, w.spanCursor)
					}
				}
			}
		}
	}
	if cs := s.ChunkStats(); cs.Reborn != uint64(got.reborn) {
		t.Fatalf("ChunkStats counts %d re-created chunks, %d were seen", cs.Reborn, got.reborn)
	}
	return got
}

// setOf returns the set area w belongs to.
func setOf(s *Store, w *area) *Set {
	for _, set := range s.sets {
		if slices.Contains(set.areas, w) {
			return set
		}
	}
	panic("area of no set")
}

// bornSeeds are the committed inputs: random streams under every store
// set-up, with and without head dropping, and two that re-create a lagging
// chunk whose sibling in the query must follow it past the query's target.
// In both, A∈[10,30) is fetched with B, C and D, and cracks leave B at
// cursor 1, C at 2 and D and the span at 3, before every head is dropped.
// Then a conjunction covering the area with B and C re-creates B as it
// replays; or, with C's crack a repeat that B skips lazily, a disjunction
// over B and C re-creates B when it reads B's head.
func bornSeeds() [][]byte {
	seeds := [][]byte{
		{0, 5, 11, 20, 3, 13, 16, 1, 15, 12, 2, 17, 8, 19, 0, 0, 3, 11, 20},
		{0, 5, 11, 20, 3, 13, 16, 1, 13, 16, 2, 17, 8, 19, 0, 0, 15, 1, 23},
	}
	rng := rand.New(rand.NewSource(36))
	for cfg := 0; cfg < 32; cfg++ {
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
// FuzzBornAligned reach every way a chunk gets its layout — created from a
// following span and from one an update stopped, re-created at the span's
// cursor — and both other ways a dropped head comes back: from a sibling at
// its cursor and rebuilt from the span.
func TestBornAlignedSeedsCoverEveryBranch(t *testing.T) {
	var total bornCounts
	for _, seed := range bornSeeds() {
		total.add(checkBornAligned(t, seed))
	}
	t.Logf("%+v", total)
	if total.born == 0 || total.bornStopped == 0 || total.reborn == 0 || total.sibling == 0 || total.rebuild == 0 {
		t.Fatalf("the seeds miss a branch: %+v", total)
	}
}
