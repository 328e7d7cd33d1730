package sideways

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

// naive evaluates the same queries directly over base columns with
// tombstone filtering, producing rows in insertion order.
type naive struct {
	rel  *store.Relation
	dead map[int]bool
}

func (nv *naive) rows(preds []AttrPred, projs []string, disjunctive bool) [][]Value {
	var out [][]Value
	n := nv.rel.NumRows()
	for i := 0; i < n; i++ {
		if nv.dead[i] {
			continue
		}
		match := !disjunctive
		for _, ap := range preds {
			m := ap.Pred.Matches(nv.rel.MustColumn(ap.Attr).Vals[i])
			if disjunctive {
				match = match || m
			} else {
				match = match && m
			}
		}
		if !match {
			continue
		}
		row := make([]Value, len(projs))
		for j, attr := range projs {
			row[j] = nv.rel.MustColumn(attr).Vals[i]
		}
		out = append(out, row)
	}
	return out
}

// canon sorts rows lexicographically for multiset comparison.
func canon(rows [][]Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func resultRows(res Result, projs []string) [][]Value {
	rows := make([][]Value, res.N)
	for i := 0; i < res.N; i++ {
		row := make([]Value, len(projs))
		for j, attr := range projs {
			row[j] = res.Cols[attr][i]
		}
		rows[i] = row
	}
	return rows
}

func equalRows(t *testing.T, got, want [][]Value, ctx string) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d", ctx, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: row mismatch at %d: %s vs %s", ctx, i, g[i], w[i])
		}
	}
}

func buildRel(rng *rand.Rand, n int, attrs []string, domain int64) *store.Relation {
	return store.Build("R", n, attrs, func(attr string, row int) Value {
		return Value(rng.Int63n(domain))
	})
}

// Figure 1: select B from R where 10<A<15 on the paper's example data.
func TestPaperFigure1(t *testing.T) {
	a := []Value{12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16}
	b := make([]Value, len(a))
	for i := range b {
		b[i] = Value(100 + i) // b_i = 100+i stands for the paper's b1..b13
	}
	rel := store.NewRelation("R", "A", "B")
	for i := range a {
		rel.AppendRow(a[i], b[i])
	}
	s := NewStore(rel)
	res := s.SelectProject("A", store.Open(10, 15), []string{"B"})
	// Qualifying: A=12 (b1=100), A=11 (b12=111).
	equalRows(t, resultRows(res, []string{"B"}), [][]Value{{100}, {111}}, "figure 1 q1")

	// Second query: select B from R where 5<=A<17.
	res = s.SelectProject("A", store.Range(5, 17), []string{"B"})
	want := [][]Value{}
	for i := range a {
		if a[i] >= 5 && a[i] < 17 {
			want = append(want, []Value{b[i]})
		}
	}
	equalRows(t, resultRows(res, []string{"B"}), want, "figure 1 q2")
	// The second query must further crack the same map, not rebuild it.
	set := s.SetIfExists("A")
	if set == nil || set.MapIfExists("B") == nil {
		t.Fatal("map M_AB not retained")
	}
	if set.TapeLen() != 2 {
		t.Fatalf("tape length = %d, want 2", set.TapeLen())
	}
}

// Figure 2: multi-projection queries must yield positionally aligned
// results after adaptive alignment.
func TestPaperFigure2Alignment(t *testing.T) {
	a := []Value{7, 4, 1, 2, 8, 3, 6}
	b := []Value{71, 41, 11, 21, 81, 31, 61} // b_i tied to a_i
	c := []Value{72, 42, 12, 22, 82, 32, 62} // c_i tied to a_i
	rel := store.NewRelation("R", "A", "B", "C")
	for i := range a {
		rel.AppendRow(a[i], b[i], c[i])
	}
	s := NewStore(rel)
	// Query 1: select B where A<3 — creates and cracks M_AB.
	s.SelectProject("A", store.Open(-1, 3), []string{"B"})
	// Query 2: select C where A<5 — creates and cracks M_AC differently.
	s.SelectProject("A", store.Open(-1, 5), []string{"C"})
	// Query 3: select B,C where A<4 — alignment must restore positional
	// correspondence: each result row must be a true (b_i, c_i) pair.
	res := s.SelectProject("A", store.Open(-1, 4), []string{"B", "C"})
	if res.N != 3 {
		t.Fatalf("N = %d, want 3", res.N)
	}
	for i := 0; i < res.N; i++ {
		bv, cv := res.Cols["B"][i], res.Cols["C"][i]
		if bv-1 != cv-2 {
			t.Fatalf("row %d not aligned: B=%d C=%d", i, bv, cv)
		}
	}
}

func TestLazyAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := buildRel(rng, 500, []string{"A", "B", "C"}, 100)
	s := NewStore(rel)
	s.SelectProject("A", store.Range(10, 20), []string{"B"})
	s.SelectProject("A", store.Range(30, 40), []string{"B"})
	s.SelectProject("A", store.Range(50, 60), []string{"C"})
	set := s.SetIfExists("A")
	mb, mc := set.MapIfExists("B"), set.MapIfExists("C")
	if mb.Cursor() != 2 {
		t.Fatalf("M_AB cursor = %d, want 2 (must not see C's crack eagerly)", mb.Cursor())
	}
	if mc.Cursor() != 3 {
		t.Fatalf("M_AC cursor = %d, want 3", mc.Cursor())
	}
	// Using B again must catch it up.
	s.SelectProject("A", store.Range(70, 80), []string{"B"})
	if mb.Cursor() != 4 {
		t.Fatalf("M_AB cursor after reuse = %d, want 4", mb.Cursor())
	}
}

// quickCheck runs prop under quick.Check for maxCount random inputs. Each
// property below is built from a store constructor and checked for both the
// full store (TestQuick*) and the partial store (TestPartialQuick*).
func quickCheck(t *testing.T, maxCount int, prop any) {
	t.Helper()
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequences of single-selection multi-projection queries agree
// with the naive scan, including row alignment across projections.
func TestQuickSelectProject(t *testing.T) {
	quickCheck(t, 30, selectProjectProp(NewStore))
}

func TestPartialQuickSelectProject(t *testing.T) {
	quickCheck(t, 30, selectProjectProp(NewPartialStore))
}

func selectProjectProp(newStore func(*store.Relation) *Store) func(int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := buildRel(rng, 300, []string{"A", "B", "C", "D"}, 80)
		s := newStore(rel)
		nv := &naive{rel: rel, dead: map[int]bool{}}
		projSets := [][]string{{"B"}, {"B", "C"}, {"B", "C", "D"}, {"C", "D"}}
		for q := 0; q < 25; q++ {
			lo := rng.Int63n(80)
			hi := lo + rng.Int63n(80-lo+1)
			pred := store.Pred{Lo: lo, Hi: hi, LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
			projs := projSets[rng.Intn(len(projSets))]
			res := s.SelectProject("A", pred, projs)
			if !sameRows(resultRows(res, projs), nv.rows([]AttrPred{{"A", pred}}, projs, false)) {
				return false
			}
		}
		return s.checkInvariants() == nil
	}
}

// Property: conjunctive and disjunctive multi-selections agree with naive.
func TestQuickMultiSelect(t *testing.T) {
	quickCheck(t, 25, multiSelectProp(NewStore))
}

func TestPartialQuickMultiSelect(t *testing.T) {
	quickCheck(t, 25, multiSelectProp(NewPartialStore))
}

func multiSelectProp(newStore func(*store.Relation) *Store) func(int64, bool) bool {
	return func(seed int64, disjunctive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := buildRel(rng, 250, []string{"A", "B", "C", "D"}, 60)
		s := newStore(rel)
		nv := &naive{rel: rel, dead: map[int]bool{}}
		attrs := []string{"A", "B", "C"}
		for q := 0; q < 15; q++ {
			nPred := 1 + rng.Intn(3)
			var preds []AttrPred
			seen := map[string]bool{}
			for len(preds) < nPred {
				attr := attrs[rng.Intn(len(attrs))]
				if seen[attr] {
					continue
				}
				seen[attr] = true
				lo := rng.Int63n(60)
				hi := lo + rng.Int63n(60-lo+1)
				preds = append(preds, AttrPred{attr, store.Range(lo, hi)})
			}
			projs := []string{"D", "A"}
			res := s.MultiSelect(preds, projs, disjunctive)
			if !sameRows(resultRows(res, projs), nv.rows(preds, projs, disjunctive)) {
				return false
			}
		}
		return s.checkInvariants() == nil
	}
}

// updateStream runs steps random inserts, deletes and queries against s and
// nv, asking query for each query's got and wanted rows; it reports whether
// every answer agreed and the store's invariants hold at the end.
func updateStream(rng *rand.Rand, s *Store, nv *naive, steps int, query func(*Store, *naive) (got, want [][]Value)) bool {
	live := make([]int, nv.rel.NumRows())
	for i := range live {
		live[i] = i
	}
	for step := 0; step < steps; step++ {
		switch rng.Intn(4) {
		case 0:
			k := s.Insert(Value(rng.Int63n(50)), Value(rng.Int63n(50)), Value(rng.Int63n(50)))
			live = append(live, k)
		case 1:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				k := live[i]
				live = append(live[:i], live[i+1:]...)
				s.Delete(k)
				nv.dead[k] = true
			}
		default:
			if !sameRows(query(s, nv)) {
				return false
			}
		}
	}
	return s.checkInvariants() == nil
}

// Property: interleaved updates and queries stay consistent with an eager
// reference, exercising tape insert/delete entries, key maps and chunks, and
// pending push-back on unfetch.
func TestQuickUpdates(t *testing.T) {
	quickCheck(t, 25, updatesProp(NewStore))
}

func TestPartialQuickUpdates(t *testing.T) {
	quickCheck(t, 25, updatesProp(NewPartialStore))
}

func updatesProp(newStore func(*store.Relation) *Store) func(int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := buildRel(rng, 200, []string{"A", "B", "C"}, 50)
		return updateStream(rng, newStore(rel), &naive{rel: rel, dead: map[int]bool{}}, 50, func(s *Store, nv *naive) (got, want [][]Value) {
			lo := rng.Int63n(50)
			hi := lo + rng.Int63n(50-lo+1)
			pred := store.Range(lo, hi)
			projs := []string{"B", "C"}
			return resultRows(s.SelectProject("A", pred, projs), projs), nv.rows([]AttrPred{{"A", pred}}, projs, false)
		})
	}
}

func TestBudgetDropsLFUMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := buildRel(rng, 100, []string{"A", "B", "C", "D", "E"}, 50)
	s := NewStore(rel)
	s.Budget = 250 // room for two maps of 100 plus slack
	// Use B often, C once.
	for i := 0; i < 5; i++ {
		s.SelectProject("A", store.Range(10, 20), []string{"B"})
	}
	s.SelectProject("A", store.Range(10, 20), []string{"C"})
	// Requesting D must drop C (LFU), not B.
	s.SelectProject("A", store.Range(10, 20), []string{"D"})
	set := s.SetIfExists("A")
	if set.MapIfExists("C") != nil {
		t.Fatal("LFU map C should have been dropped")
	}
	if set.MapIfExists("B") == nil {
		t.Fatal("hot map B should have survived")
	}
	if s.StorageTuples() > s.Budget {
		t.Fatalf("storage %d exceeds budget %d", s.StorageTuples(), s.Budget)
	}
	// Dropped map must be recreated correctly on demand.
	res := s.SelectProject("A", store.Range(0, 50), []string{"C"})
	nv := &naive{rel: rel, dead: map[int]bool{}}
	want := nv.rows([]AttrPred{{"A", store.Range(0, 50)}}, []string{"C"}, false)
	equalRows(t, resultRows(res, []string{"C"}), want, "recreated map")
}

func TestEstimateImprovesWithCracking(t *testing.T) {
	// Sorted-ish domain: values 0..999 shuffled.
	rng := rand.New(rand.NewSource(4))
	n := 1000
	rel := store.Build("R", n, []string{"A", "B"}, func(attr string, row int) Value {
		return Value(rng.Int63n(1000))
	})
	s := NewStore(rel)
	pred := store.Range(100, 300)
	truth := store.SelectCount(rel.MustColumn("A"), pred)
	// Fallback estimate (no maps): uniform assumption.
	est0 := s.EstimateSelectivity("A", pred)
	if est0 <= 0 || est0 > n {
		t.Fatalf("fallback estimate out of range: %d", est0)
	}
	// Crack exactly this range: estimate becomes exact.
	s.SelectProject("A", pred, []string{"B"})
	est1 := s.EstimateSelectivity("A", pred)
	if est1 != truth {
		t.Fatalf("post-crack estimate = %d, want exact %d", est1, truth)
	}
}

func TestMultiSelectChoosesMostSelectiveSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := buildRel(rng, 1000, []string{"A", "B", "C"}, 1000)
	s := NewStore(rel)
	// A-predicate very selective, B-predicate not.
	preds := []AttrPred{
		{"A", store.Range(0, 10)},
		{"B", store.Range(0, 900)},
	}
	s.MultiSelect(preds, []string{"C"}, false)
	if s.SetIfExists("A") == nil {
		t.Fatal("expected set S_A to be chosen/created")
	}
	if s.SetIfExists("B") != nil {
		t.Fatal("set S_B should not have been materialized")
	}
}

func TestDisjunctiveChoosesLeastSelectiveSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := buildRel(rng, 1000, []string{"A", "B", "C"}, 1000)
	s := NewStore(rel)
	preds := []AttrPred{
		{"A", store.Range(0, 10)},
		{"B", store.Range(0, 900)},
	}
	s.MultiSelect(preds, []string{"C"}, true)
	if s.SetIfExists("B") == nil {
		t.Fatal("expected set S_B (least selective) to be chosen")
	}
	if s.SetIfExists("A") != nil {
		t.Fatal("set S_A should not have been materialized")
	}
}

func TestStorageTuplesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := buildRel(rng, 100, []string{"A", "B", "C"}, 50)
	s := NewStore(rel)
	if s.StorageTuples() != 0 {
		t.Fatal("fresh store should use no map storage")
	}
	s.SelectProject("A", store.Range(0, 10), []string{"B", "C"})
	// B and C are born in one query: one head group, a map of 100 and a
	// tail that follows it, of 50.
	if got := s.StorageTuples(); got != 150 {
		t.Fatalf("StorageTuples = %d, want 150 (a map of 100 and a tail of 50)", got)
	}
}

func BenchmarkSelectProjectConverging(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rel := store.Build("R", 1<<16, []string{"A", "B", "C"}, func(string, int) Value {
		return Value(rng.Int63n(1 << 16))
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewStore(rel)
		b.StartTimer()
		for q := 0; q < 50; q++ {
			lo := rng.Int63n(1 << 16)
			s.SelectProject("A", store.Range(lo, lo+(1<<13)), []string{"B", "C"})
		}
	}
}

// TestPendingDeleteMergeReadsOnlyEnclosingPieces: no full-column scan remains
// on the merge path. On a 1M-row store cracked into over 1,000 pieces, a
// query that merges one matching pending delete reads, to locate it by value
// in the map it aligns, no more than the two pieces its bounds fall into, and
// the set builds no key map.
func TestPendingDeleteMergeReadsOnlyEnclosingPieces(t *testing.T) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(12))
	rel := buildRel(rng, n, []string{"A", "B"}, n)
	s := NewStore(rel)
	projs := []string{"B"}
	for q := 0; q < 700; q++ {
		lo := rng.Int63n(n - 500)
		s.SelectProject("A", store.Range(lo, lo+500), projs)
	}
	set := s.SetIfExists("A")
	m := set.MapIfExists("B")
	if pieces := m.pairs.Idx.Pieces(); pieces < 1000 {
		t.Fatalf("map has %d pieces, want at least 1000", pieces)
	}
	aVals := rel.MustColumn("A").Vals
	for round, key := range []int{17, 4711} {
		a := aVals[key]
		pred := store.Range(a-100, a+100)
		pcLo := m.pairs.Idx.PieceFor(pred.LowerBound(), m.Len())
		pcHi := m.pairs.Idx.PieceFor(pred.UpperBound(), m.Len())
		enclosing := pcHi.Hi - pcLo.Lo
		if pcLo.Hi < pcHi.Lo {
			enclosing = (pcLo.Hi - pcLo.Lo) + (pcHi.Hi - pcHi.Lo)
		}
		before := m.pairs.Stats.Scanned
		s.Delete(key)
		res := s.SelectProject("A", pred, projs)
		if keyMap(set) != nil {
			t.Fatalf("round %d: a delete of a tuple no other equals built the key map", round)
		}
		scanned := m.pairs.Stats.Scanned - before
		if scanned == 0 || scanned > enclosing {
			t.Fatalf("round %d: locating one pending delete read %d tuples of M_AB, want 1..%d (the enclosing pieces) of %d",
				round, scanned, enclosing, n)
		}
		want := 0
		for k, v := range aVals {
			if pred.Matches(v) && !s.rel.IsDeleted(k) {
				want++
			}
		}
		if res.N != want {
			t.Fatalf("round %d: %d rows after the delete, want %d", round, res.N, want)
		}
		if m.Len() != n-round-1 {
			t.Fatalf("round %d: M_AB holds %d tuples, want %d", round, m.Len(), n-round-1)
		}
	}
}

// TestDeleteOfIndistinguishableTupleFallsBack: tuples equal in A and B but
// not in C cannot be told apart by a query that aligns only M_AB, so the
// delete of one of them, or of both in one merge, goes through the key map
// and takes the deleted tuples' own positions: M_AC then answers the
// survivors' C values only.
func TestDeleteOfIndistinguishableTupleFallsBack(t *testing.T) {
	for _, victims := range [][]int{{1}, {2}, {1, 2}} {
		rel := store.NewRelation("R", "A", "B", "C")
		for _, row := range [][]Value{{5, 50, 500}, {7, 70, 700}, {7, 70, 701}, {9, 90, 900}, {7, 71, 702}} {
			rel.AppendRow(row...)
		}
		nv := &naive{rel: rel, dead: map[int]bool{}}
		s := NewStore(rel)
		s.SelectProject("A", store.Range(0, 8), []string{"B"})
		for _, k := range victims {
			s.Delete(k)
			nv.dead[k] = true
		}
		ctx := fmt.Sprintf("deleting %v", victims)
		pred := store.Range(6, 8)
		for _, projs := range [][]string{{"B"}, {"C"}, {"B", "C"}} {
			res := s.SelectProject("A", pred, projs)
			equalRows(t, resultRows(res, projs), nv.rows([]AttrPred{{Attr: "A", Pred: pred}}, projs, false), fmt.Sprintf("%s, A -> %v", ctx, projs))
			if keyMap(s.SetIfExists("A")) == nil {
				t.Fatalf("%s: merged by value although A and B cannot tell the twins apart", ctx)
			}
		}
	}
}

// keyMap returns the key map of a full-map set, nil when it has none.
func keyMap(set *Set) *Map { return set.MapIfExists("") }

// TestKernelCountsTheKeyMap: the work a key map does shows in Kernel. A
// query over the key map (as a cracker join issues) merging a delete builds
// the key map and replays the set's tape onto it; Kernel then counts that
// map's visits beside M_AB's.
func TestKernelCountsTheKeyMap(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(8)), 1000, []string{"A", "B"}, 500)
	s := NewStore(rel)
	for i := 0; i < 5; i++ {
		s.SelectProject("A", store.Range(Value(i*80), Value(i*80+40)), []string{"B"})
	}
	s.Delete(3)
	set := s.SetIfExists("A")
	set.Query(store.Range(0, 100), []string{""}, true)
	if keyMap(set) == nil || keyMap(set).pairs.Stats.Visited == 0 {
		t.Fatal("a key-map merge of a delete should build the key map and replay the tape onto it")
	}
	ks, pieces, cols := s.Kernel()
	b := set.MapIfExists("B").pairs
	if want := b.Stats.Visited + keyMap(set).pairs.Stats.Visited; ks.Visited != want {
		t.Fatalf("Kernel counts %d visited tuples, M_AB and the key map visited %d", ks.Visited, want)
	}
	if want := b.Idx.Pieces() + keyMap(set).pairs.Idx.Pieces(); cols != 2 || pieces != want {
		t.Fatalf("Kernel counts %d structures of %d pieces, want 2 of %d", cols, pieces, want)
	}
}
