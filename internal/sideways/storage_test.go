package sideways

import (
	"math/rand"
	"runtime"
	"testing"

	"crackstore/internal/store"
)

// TestBudgetedCycleDoesNotThrash runs the Fig 9 cycle at a tenth of the
// benchmark's scale: five query types A∈1% ∧ X∈50% → Y that together want
// five maps of S_A, in batches of 100, under a budget of three. Its chunks
// are tails that cost half a map each, so the three maps' budget is 1.5
// times the rows (the chunks of all five want 2.5). Counts only. Evicting
// by access count alone materialized 5,213 chunks of 2,666,097 tuples on
// this stream and the chunks it evicted had been used 1.04 times on
// average: it dropped what it had created a query ago and kept the
// well-used chunks of batches that had ended.
func TestBudgetedCycleDoesNotThrash(t *testing.T) {
	const rows, lfuTuples = 100000, 2666097
	rng := rand.New(rand.NewSource(17))
	s := NewPartialStore(buildRel(rng, rows, cycleAttrs, rows))
	s.Budget = 3 * rows / 2
	for q := 0; q < 2000; q++ {
		cycleQuery(s, rng, q, rows)
		if s.StorageTuples() > s.Budget {
			t.Fatalf("query %d: %d chunk tuples, budget %d", q, s.StorageTuples(), s.Budget)
		}
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	cs := s.ChunkStats()
	if cs.Evicted == 0 {
		t.Fatal("the cycle evicted nothing")
	}
	if limit := uint64(lfuTuples * 8 / 10); cs.TuplesCreated > limit {
		t.Errorf("materialized %d chunk tuples in %d chunks, want at most %d (0.8x of plain LFU)", cs.TuplesCreated, cs.Created, limit)
	}
	if mean := float64(s.evictedAccesses) / float64(cs.Evicted); mean < 1.5 {
		t.Errorf("evicted chunks had been used %.2f times on average, want at least 1.5", mean)
	}
}

var cycleAttrs = []string{"A", "B", "C", "D", "E", "F"}

// cycleQuery asks query q of the Fig 9 cycle over rows tuples: query type
// q/100 mod 5 of A∈1% ∧ X∈50% → Y.
func cycleQuery(s *Store, rng *rand.Rand, q, rows int) {
	types := [][2]string{{"B", "C"}, {"C", "D"}, {"D", "E"}, {"E", "F"}, {"F", "B"}}
	typ := types[q/100%len(types)]
	lo, xlo := rng.Int63n(int64(rows-rows/100)), rng.Int63n(int64(rows/2))
	s.MultiSelect([]AttrPred{
		{Attr: "A", Pred: store.Range(lo, lo+int64(rows/100))},
		{Attr: typ[0], Pred: store.Range(xlo, xlo+int64(rows/2))},
	}, []string{typ[1]}, false)
}

// TestHeadRecoveryBudget runs the cycle of TestBudgetedCycleDoesNotThrash
// with updates, a delete and an insert at a time, and checks the budget
// after every query. Storage grows two ways where an update merges: the
// area's span takes columns of its own at the area's first update, a map of
// the span's length, and ripple inserts add tuples to the span and to every
// chunk. Room is made under the budget before either. Case idle=N runs N queries with no update
// between two updates; case cached=N issues N updates before the first
// query, all pending until queries reach them, and none after.
func TestHeadRecoveryBudget(t *testing.T) {
	const rows = 100000
	cases := []struct {
		name          string
		idle, upfront int
	}{{"idle=1", 1, 0}, {"idle=2", 2, 0}, {"idle=5", 5, 0}, {"idle=20", 20, 0}, {"cached=256", 0, 256}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			s := NewPartialStore(buildRel(rng, rows, cycleAttrs, rows))
			s.Budget = 3 * rows / 2
			owned := 0
			s.observe = func(ev event, _ *area, _ *Map) {
				if ev == evOwned {
					owned++
				}
			}
			update := func() {
				s.Delete(rng.Intn(rows))
				s.Insert(rng.Int63n(rows), rng.Int63n(rows), rng.Int63n(rows), rng.Int63n(rows), rng.Int63n(rows), rng.Int63n(rows))
			}
			for i := 0; i < c.upfront; i++ {
				update()
			}
			for q := 0; q < 2000; q++ {
				if c.upfront == 0 && q%(c.idle+1) == 0 {
					update()
				}
				cycleQuery(s, rng, q, rows)
				if s.StorageTuples() > s.Budget {
					t.Fatalf("query %d: %d chunk tuples, budget %d", q, s.StorageTuples(), s.Budget)
				}
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d spans took columns of their own, %d evicted", c.name, owned, s.ChunkStats().Evicted)
			if owned == 0 || s.ChunkStats().Evicted == 0 {
				t.Fatalf("%d spans took columns of their own and %d chunks were evicted", owned, s.ChunkStats().Evicted)
			}
		})
	}
}

// TestWarmChunkCreationAllocatesOneColumn: two query types over the same
// sixteen ranges, under a budget that holds the chunks of one and a half,
// evict each other's chunks forever. The chunks are tails of half a map's
// cost, so the budget is three quarters of the rows. Once warm, a query
// allocates its answer and the tail of the chunk it creates, one column
// each, and little else.
func TestWarmChunkCreationAllocatesOneColumn(t *testing.T) {
	const rows, ranges = 64000, 16
	const width = rows / ranges
	perm := rand.New(rand.NewSource(3)).Perm(rows) // every range selects exactly width tuples
	rel := store.Build("R", rows, []string{"A", "B", "C"}, func(attr string, row int) Value {
		if attr == "A" {
			return Value(perm[row])
		}
		return Value(row)
	})
	s := NewPartialStore(rel)
	s.Budget = rows * 3 / 4
	pass := func(y string) {
		for r := 0; r < ranges; r++ {
			s.SelectProject("A", store.Range(Value(r*width), Value((r+1)*width)), []string{y})
		}
	}
	pass("B")
	pass("C")
	pass("B")
	warm := s.ChunkStats()
	if warm.Evicted == 0 {
		t.Fatalf("warm-up evicted no chunk: %+v", warm)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const passes = 6
	for i := 0; i < passes/2; i++ {
		pass("C")
		pass("B")
	}
	runtime.ReadMemStats(&m1)
	cs := s.ChunkStats()
	created := cs.Created - warm.Created
	if created < passes*ranges/2 {
		t.Fatalf("%d chunks created in %d passes: the types do not evict each other", created, passes)
	}
	// Every query's answer is one column, a created chunk's tail one more,
	// and an eighth of a column covers the rest: 60,818 bytes a query at
	// this stream, against a bound of 62,333.
	const column = width * 8
	queries := uint64(passes * ranges)
	perQuery := (m1.TotalAlloc - m0.TotalAlloc) / queries
	if bound := column + created*column/queries + column/8; perQuery > bound {
		t.Errorf("%d bytes allocated per query, bound %d: the answer is one column of %d, and %d of %d queries created a chunk of one more",
			perQuery, bound, column, created, queries)
	}
}

// TestMapsBornTogetherShareOneHead: the first query of the explore stream's
// T1 type (A in 1%, projecting B and C) on a cold full-map store creates
// M_AB and M_AC together, as one head group: M_AB owns the head and the
// index, M_AC is a tail that follows it. Storage is a map and a half, the
// query allocates three columns (M_AB's head and tail, M_AC's tail) and its
// answer, and the set's estimates read the owner's index. The group
// outlives the first merged insert: the owner decides where the tuple goes
// and M_AC's tail follows, so storage stays a map and a half.
func TestMapsBornTogetherShareOneHead(t *testing.T) {
	const rows = 100_000
	rel := buildRel(rand.New(rand.NewSource(4)), rows, []string{"A", "B", "C"}, rows)
	s := NewStore(rel)
	pred := store.Range(40_000, 41_000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := s.SelectProject("A", pred, []string{"B", "C"})
	runtime.ReadMemStats(&m1)
	if got := s.StorageTuples(); got != rows*3/2 {
		t.Fatalf("StorageTuples = %d after the first query, want %d (a map and a tail)", got, rows*3/2)
	}
	// Besides its columns and answer the query allocates its plan, its
	// windows, index nodes and bookkeeping: 11.7 to 12.9 KB on this
	// stream, within a 32nd of a column. A fourth column is 800 KB.
	const column = rows * 8
	answer := uint64(2 * res.N * 8)
	if got, bound := m1.TotalAlloc-m0.TotalAlloc, 3*column+answer+column/32; got > bound {
		t.Errorf("the query allocated %d bytes, bound %d: three columns of %d and an answer of %d", got, bound, column, answer)
	}
	if m := s.SetIfExists("A").MostAlignedMap(); m == nil || m.Pairs().Idx == nil {
		t.Fatal("the most aligned map has no index of its own")
	}
	s.Insert(40_500, 1, 2)
	s.SelectProject("A", pred, []string{"B", "C"})
	if got, want := s.StorageTuples(), rows+1+(rows+2)/2; got != want {
		t.Fatalf("StorageTuples = %d after the first merged insert, want %d (a map and a tail)", got, want)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChunkBirth measures creating one chunk of a fetched area of 2^18
// tuples, in ns per created tuple, under a budget that holds one chunk, so
// every creation evicts the previous one and allocates its columns afresh.
// "tail" is a chunk of an area no update has reached: its tail gathered
// through the keys of its span, a view of H_A. "updated" is a chunk of an
// area an insert has reached, whose span has columns of its own: the same
// gather through those keys, so it reports its ns/tuple against "tail"'s as
// well (vs_tail, 1 when they cost the same).
func BenchmarkChunkBirth(b *testing.B) {
	const rows = 1 << 20
	var tailNs float64
	for _, updated := range []bool{false, true} {
		name := map[bool]string{false: "tail", true: "updated"}[updated]
		b.Run(name, func(b *testing.B) {
			rel := buildRel(rand.New(rand.NewSource(1)), rows, []string{"A", "B", "C"}, rows)
			s := NewPartialStore(rel)
			pred := store.Range(0, rows/4-1)
			s.SelectProject("A", pred, []string{"B"})
			if updated {
				s.Insert(1, 2, 3)
				s.SelectProject("A", pred, []string{"B"})
			}
			set := s.SetIfExists("A")
			w := set.areas[0]
			m := w.maps["B"]
			s.Budget = m.tuples()
			s.pinnedAreas = map[*area]bool{w: true} // evicting the last chunk keeps the area
			tails := []string{"C", "B"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m = set.ensureMap(w, tails[i%2], nil)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*m.Len())
			b.ReportMetric(ns, "ns/tuple")
			if !updated {
				tailNs = ns
			} else if tailNs > 0 {
				b.ReportMetric(ns/tailNs, "vs_tail")
			}
		})
	}
}
