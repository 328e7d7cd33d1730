package sideways

import (
	"math/rand"
	"runtime"
	"testing"

	"crackstore/internal/store"
)

// TestBudgetedCycleDoesNotThrash runs the Fig 9 cycle at a tenth of the
// benchmark's scale: five query types A∈1% ∧ X∈50% → Y that together want
// five maps of S_A, in batches of 100, under a budget of three. Counts only.
// Evicting by access count alone materialized 5,245 chunks of 2,668,230
// tuples on this stream (commit 3a8b22a) and the chunks it evicted had been
// used 1.04 times on average: it dropped what it had created a query ago and
// kept the well-used chunks of batches that had ended.
func TestBudgetedCycleDoesNotThrash(t *testing.T) {
	const rows, lfuTuples = 100000, 2668230
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	types := [][2]string{{"B", "C"}, {"C", "D"}, {"D", "E"}, {"E", "F"}, {"F", "B"}}
	rng := rand.New(rand.NewSource(17))
	s := NewPartialStore(buildRel(rng, rows, attrs, rows))
	s.Budget = 3 * rows
	for q := 0; q < 2000; q++ {
		typ := types[q/100%len(types)]
		lo, xlo := rng.Int63n(rows-rows/100), rng.Int63n(rows/2)
		s.MultiSelect([]AttrPred{
			{Attr: "A", Pred: store.Range(lo, lo+rows/100)},
			{Attr: typ[0], Pred: store.Range(xlo, xlo+rows/2)},
		}, []string{typ[1]}, false)
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

// TestWarmChunkCreationAllocatesNoColumn: two query types over the same
// sixteen ranges, under a budget that holds the chunks of one and a half,
// evict each other's chunks forever. Once warm, every creation draws both
// columns from the free list and the one column a query allocates is its
// answer.
func TestWarmChunkCreationAllocatesNoColumn(t *testing.T) {
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
	s.Budget = rows * 3 / 2
	pass := func(y string) {
		for r := 0; r < ranges; r++ {
			s.SelectProject("A", store.Range(Value(r*width), Value((r+1)*width)), []string{y})
		}
	}
	pass("B")
	pass("C")
	pass("B")
	warm := s.ChunkStats()
	if warm.Evicted == 0 || warm.BuffersRecycled == 0 {
		t.Fatalf("warm-up did not cycle chunks through the free list: %+v", warm)
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
	if cs.BuffersAllocated != warm.BuffersAllocated {
		t.Errorf("%d columns allocated once warm, want none", cs.BuffersAllocated-warm.BuffersAllocated)
	}
	if got := cs.BuffersRecycled - warm.BuffersRecycled; got != 2*created {
		t.Errorf("%d columns recycled for %d chunks, want head and tail of each", got, created)
	}
	const column = width * 8
	if perQuery := (m1.TotalAlloc - m0.TotalAlloc) / (passes * ranges); perQuery > column*3/2 {
		t.Errorf("%d bytes allocated per query; the answer is one column of %d, a fresh chunk two more", perQuery, column)
	}
	if idle := s.bufs.Idle(); idle > s.Budget/8 {
		t.Errorf("free list holds %d values, its bound is %d", idle, s.Budget/8)
	}
}
