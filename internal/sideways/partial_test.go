package sideways

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/store"
)

func sameRows(got, want [][]Value) bool {
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		return false
	}
	for i := range w {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

func mustSameRows(t *testing.T, got, want [][]Value, ctx string) {
	t.Helper()
	if !sameRows(got, want) {
		t.Fatalf("%s: got %d rows %v..., want %d rows", ctx, len(got), first3(got), len(want))
	}
}

func first3(rows [][]Value) [][]Value {
	if len(rows) > 3 {
		return rows[:3]
	}
	return rows
}

func TestSelectProjectBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := buildRel(rng, 500, []string{"A", "B", "C"}, 100)
	s := NewPartialStore(rel)
	nv := &naive{rel: rel, dead: map[int]bool{}}
	for q := 0; q < 30; q++ {
		lo := rng.Int63n(100)
		hi := lo + rng.Int63n(100-lo+1)
		pred := store.Range(lo, hi)
		res := s.SelectProject("A", pred, []string{"B", "C"})
		want := nv.rows([]AttrPred{{Attr: "A", Pred: pred}}, []string{"B", "C"}, false)
		mustSameRows(t, resultRows(res, []string{"B", "C"}), want, fmt.Sprintf("q%d %v", q, pred))
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChunksCreatedOnDemandOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := buildRel(rng, 1000, []string{"A", "B"}, 1000)
	s := NewPartialStore(rel)
	s.SelectProject("A", store.Range(100, 200), []string{"B"})
	set := s.SetIfExists("A")
	if set == nil {
		t.Fatal("set not created")
	}
	// Only the requested range (plus possibly empty side areas) should be
	// materialized: storage must be far below a full map.
	if got := s.StorageTuples(); got > 350 {
		t.Fatalf("storage = %d tuples; expected only the ~10%% chunk", got)
	}
	if set.NumAreas() == 0 {
		t.Fatal("no fetched area")
	}
}

// TestPartialAlignmentSkipsCoveredChunks: a new chunk of a covered area
// is born at its span's cursor and replays no tape entry at all, before an
// update and after one. A query that only covers the area aligns it no
// further than its chunks and its last update.
func TestPartialAlignmentSkipsCoveredChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := buildRel(rng, 2000, []string{"A", "B", "C"}, 1000)
	s := NewPartialStore(rel)
	nv := &naive{rel: rel, dead: map[int]bool{}}
	query := func(pred store.Pred, proj string) {
		t.Helper()
		res := s.SelectProject("A", pred, []string{proj})
		want := nv.rows([]AttrPred{{Attr: "A", Pred: pred}}, []string{proj}, false)
		mustSameRows(t, resultRows(res, []string{proj}), want, fmt.Sprintf("%v -> %s", pred, proj))
	}
	// Fetch [0,1000) for B via a wide query, cracking it several times.
	query(store.Range(0, 1000), "B")
	query(store.Range(100, 900), "B")
	query(store.Range(200, 800), "B")
	set := s.SetIfExists("A")
	if len(set.areas) != 1 {
		t.Fatalf("%d areas fetched, want the one over [0,1000)", len(set.areas))
	}
	w := set.areas[0]
	// Query the full range again with C: the area is covered. The new C
	// chunk starts where the span is, which led B's cracks.
	query(store.Range(0, 1000), "C")
	cb, cc := w.maps["B"], w.maps["C"]
	if cc.pairs.Stats != (crack.KernelStats{}) {
		t.Fatalf("the new C chunk did kernel work %+v", cc.pairs.Stats)
	}
	born := cc.cursor
	if born == 0 || born != w.span.cursor || born != cb.cursor {
		t.Fatalf("C chunk born at cursor %d, span at %d, B at %d", born, w.span.cursor, cb.cursor)
	}
	// Insert into the area and crack the middle with B: the span replays
	// the insert and the crack, and moves both chunks with it. Then cover
	// the area with C alone: the C chunk sits at the span's cursor, the
	// tape end, and visits nothing. A key chunk born now is gathered at the
	// span's cursor too and replays nothing.
	s.Insert(500, 1, 2)
	query(store.Range(300, 700), "B")
	query(store.Range(0, 1000), "C")
	if n := len(w.tape); cc.cursor != n || cb.cursor != n || w.span.cursor != n || cc.pairs.Stats.Visited != 0 || w.lastUpdate == 0 {
		t.Fatalf("after an insert C at cursor %d, B at %d, the span at %d of %d (last update %d); C visited %d", cc.cursor, cb.cursor, w.span.cursor, n, w.lastUpdate, cc.pairs.Stats.Visited)
	}
	s.Keys("A", store.Range(0, 1000))
	if kc := w.maps[""]; kc.cursor != len(w.tape) || kc.pairs.Stats != (crack.KernelStats{}) {
		t.Fatalf("a key chunk born after the insert at cursor %d of %d did kernel work %+v", kc.cursor, len(w.tape), kc.pairs.Stats)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetEvictionAndRecreation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := buildRel(rng, 1000, []string{"A", "B", "C", "D", "E"}, 1000)
	s := NewPartialStore(rel)
	s.Budget = 700
	nv := &naive{rel: rel, dead: map[int]bool{}}
	// Cycle through attributes so chunks must be dropped and recreated.
	projCycle := [][]string{{"B"}, {"C"}, {"D"}, {"E"}, {"B", "C"}, {"D", "E"}}
	for q := 0; q < 40; q++ {
		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(1000-lo+1)
		pred := store.Range(lo, hi)
		projs := projCycle[q%len(projCycle)]
		res := s.SelectProject("A", pred, projs)
		want := nv.rows([]AttrPred{{Attr: "A", Pred: pred}}, projs, false)
		mustSameRows(t, resultRows(res, projs), want, fmt.Sprintf("q%d", q))
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetEvictionWithUpdates(t *testing.T) {
	// Un-fetching an area whose tape holds update entries must push them
	// back to pending so they reapply on refetch.
	rng := rand.New(rand.NewSource(6))
	rel := buildRel(rng, 400, []string{"A", "B", "C"}, 100)
	s := NewPartialStore(rel)
	s.Budget = 300
	nv := &naive{rel: rel, dead: map[int]bool{}}
	var live []int
	for i := 0; i < 400; i++ {
		live = append(live, i)
	}
	for step := 0; step < 120; step++ {
		switch step % 4 {
		case 0:
			k := s.Insert(Value(rng.Int63n(100)), Value(rng.Int63n(100)), Value(rng.Int63n(100)))
			live = append(live, k)
		case 1:
			i := rng.Intn(len(live))
			k := live[i]
			live = append(live[:i], live[i+1:]...)
			s.Delete(k)
			nv.dead[k] = true
		default:
			lo := rng.Int63n(100)
			hi := lo + rng.Int63n(100-lo+1)
			pred := store.Range(lo, hi)
			projs := []string{"B"}
			if step%3 == 0 {
				projs = []string{"C"}
			}
			res := s.SelectProject("A", pred, projs)
			want := nv.rows([]AttrPred{{Attr: "A", Pred: pred}}, projs, false)
			mustSameRows(t, resultRows(res, projs), want, fmt.Sprintf("step %d", step))
		}
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rel := buildRel(rng, 1000, []string{"A", "B"}, 1000)
	s := NewPartialStore(rel)
	pred := store.Range(200, 400)
	est0 := s.EstimateSelectivity("A", pred)
	if est0 <= 0 || est0 > 1000 {
		t.Fatalf("fallback estimate = %d", est0)
	}
	s.SelectProject("A", pred, []string{"B"})
	truth := store.SelectCount(rel.MustColumn("A"), pred)
	est1 := s.EstimateSelectivity("A", pred)
	if est1 != truth {
		t.Fatalf("post-fetch estimate = %d, want %d", est1, truth)
	}
}

func TestEmptyPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := buildRel(rng, 100, []string{"A", "B"}, 50)
	s := NewPartialStore(rel)
	res := s.SelectProject("A", store.Open(10, 10), []string{"B"})
	if res.N != 0 {
		t.Fatalf("empty predicate returned %d rows", res.N)
	}
}

func BenchmarkPartialSelectProject(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rel := store.Build("R", 1<<16, []string{"A", "B", "C"}, func(string, int) Value {
		return Value(rng.Int63n(1 << 16))
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewPartialStore(rel)
		b.StartTimer()
		for q := 0; q < 50; q++ {
			lo := rng.Int63n(1 << 16)
			s.SelectProject("A", store.Range(lo, lo+(1<<13)), []string{"B", "C"})
		}
	}
}

// budgetedStream runs one seeded 1,000-query stream — conjunctive selections
// headed by three different attributes, with updates beside them — against a
// store whose budget forces eviction across sets, checking after every query
// that the running storage total equals a full recount and that no kernel
// counter went down: an evicted chunk's work stays counted. It returns the
// final storage total and an inventory of every set's areas and chunks.
func budgetedStream(t *testing.T, seed int64) (int, string) {
	t.Helper()
	const rows, domain = 4000, 4000
	rng := rand.New(rand.NewSource(seed))
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	s := NewPartialStore(buildRel(rng, rows, attrs, domain))
	s.Budget = 3 * rows
	live := rows
	var before crack.KernelStats
	for q := 0; q < 1000; q++ {
		if q%10 == 9 {
			vals := make([]Value, len(attrs))
			for i := range vals {
				vals[i] = Value(rng.Int63n(domain))
			}
			s.Insert(vals...)
			live++
			s.Delete(rng.Intn(live))
		}
		head := attrs[q%3]
		x, y := attrs[3+q%3], attrs[(4+q)%6]
		lo := rng.Int63n(domain)
		s.MultiSelect([]AttrPred{
			{Attr: head, Pred: store.Range(lo, lo+domain/100)},
			{Attr: x, Pred: store.Range(0, domain/2)},
		}, []string{y}, false)
		if err := s.checkStorage(); err != nil {
			t.Fatalf("seed %d query %d: %v", seed, q, err)
		}
		ks, _, _ := s.Kernel()
		if ks.Visited < before.Visited || ks.Moved < before.Moved || ks.InTwo < before.InTwo || ks.InThree < before.InThree {
			t.Fatalf("seed %d query %d: kernel counters fell from %+v to %+v", seed, q, before, ks)
		}
		before = ks
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if s.life.Evicted == 0 {
		t.Fatalf("seed %d: the stream evicted nothing", seed)
	}
	var inv []string
	for attr, set := range s.sets {
		for _, w := range set.areas {
			for tail, c := range w.maps {
				inv = append(inv, fmt.Sprintf("%s/%d[%d,%d)/%s len=%d cursor=%d dropped=%v access=%d",
					attr, w.id, w.lo, w.hi, tail, c.Len(), c.cursor, c.pairs.Head == nil, c.Accesses()))
			}
			inv = append(inv, fmt.Sprintf("%s/%d[%d,%d) tape=%d", attr, w.id, w.lo, w.hi, len(w.tape)))
		}
	}
	sort.Strings(inv)
	return s.StorageTuples(), strings.Join(inv, "\n")
}

// TestBudgetedStreamIsDeterministic: eviction picks its victim by a total
// order, never by map iteration order, so two runs of one seeded stream end
// with the same storage total, areas and chunk inventory, tail-only chunks
// among them.
func TestBudgetedStreamIsDeterministic(t *testing.T) {
	tuples, inv := budgetedStream(t, 21)
	if tuples == 0 || !strings.Contains(inv, "dropped=true") {
		t.Fatalf("stream did not exercise the budget and tail-only chunks: %d tuples\n%s", tuples, inv)
	}
	for run := 0; run < 3; run++ {
		againTuples, againInv := budgetedStream(t, 21)
		if againTuples != tuples || againInv != inv {
			t.Fatalf("run %d diverged: %d vs %d storage tuples\n--- first\n%s\n--- again\n%s",
				run, tuples, againTuples, inv, againInv)
		}
	}
}

// TestPartialAlignTogetherVisitsOnce is sideways' joint-alignment count
// test for the chunks of one area. The area's span leads it for life, so
// every crack is decided once, on the span: the chunks visit nothing,
// however many the query reads, and a new chunk is born at the span's
// cursor and follows it. After an insert has merged into the area the same
// holds, the span replaying the insert with the chunks following. Every
// case ends with the chunks at the tape end and the answer a scan gives.
func TestPartialAlignTogetherVisitsOnce(t *testing.T) {
	const k = 6
	pred := func(i int) store.Pred { return store.Range(Value(60*i), Value(60*i+300)) }
	// visited sums the visits of the chunks for attrs and of the span.
	visited := func(w *area, attrs []string) (chunks, span int) {
		for _, attr := range attrs {
			if c, ok := w.maps[attr]; ok {
				chunks += c.pairs.Stats.Visited
			}
		}
		return chunks, w.span.pairs.Stats.Visited
	}
	// run fetches one area over the whole domain projecting first; with
	// update set it then inserts a tuple into it and merges it. It queries
	// pred(1..k) projecting lag, then pred(k+1) projecting last, and
	// returns what the span visited in the last query.
	run := func(update bool, first, lag, last []string) int {
		rel := buildRel(rand.New(rand.NewSource(12)), 2000, []string{"A", "B", "C", "D"}, 1000)
		s := NewPartialStore(rel)
		nv := &naive{rel: rel, dead: map[int]bool{}}
		s.SelectProject("A", store.Range(0, 1000), first)
		w := s.SetIfExists("A").areas[0]
		if update {
			s.Insert(500, 1, 2, 3)
			s.SelectProject("A", store.Range(0, 1000), first)
		}
		for i := 1; i <= k; i++ {
			s.SelectProject("A", pred(i), lag)
		}
		_, span := visited(w, last)
		res := s.SelectProject("A", pred(k+1), last)
		want := nv.rows([]AttrPred{{Attr: "A", Pred: pred(k + 1)}}, last, false)
		mustSameRows(t, resultRows(res, last), want, "last query")
		for _, attr := range last {
			if c := w.maps[attr]; c.cursor != len(w.tape) || c.pairs.Head != nil {
				t.Fatalf("chunk %s: has a head %v, cursor %d of %d", attr, c.pairs.Head != nil, c.cursor, len(w.tape))
			}
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		chunksAfter, spanAfter := visited(w, last)
		if chunksAfter != 0 {
			t.Fatalf("the chunks of a led area visited %d tuples", chunksAfter)
		}
		return spanAfter - span
	}
	b, d, both := []string{"B"}, []string{"D"}, []string{"B", "C"}
	for _, update := range []bool{false, true} {
		led := run(update, b, d, b)
		if together := run(update, both, d, both); led == 0 || together != led {
			t.Fatalf("update %v: two chunks cost the span %d, one chunk %d", update, together, led)
		}
		// The C chunk is new beside B's: it is born at the span's cursor
		// and follows the one crack.
		if staggered := run(update, d, b, both); staggered != led {
			t.Fatalf("update %v: a new chunk beside an old one cost the span %d, one chunk %d", update, staggered, led)
		}
	}
}
