package sideways

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"crackstore/internal/store"
)

// budgetedMapStream runs one 12-query stream under a three-map budget and
// returns the surviving maps and the storage total. Every map is used once
// before the next one is needed, so every eviction is a tie on access count.
func budgetedMapStream() (maps string, tuples int) {
	rel := buildRel(rand.New(rand.NewSource(5)), 100, []string{"A", "B", "C", "D", "E", "F"}, 50)
	s := NewStore(rel)
	s.Budget = 300
	stream := [][2]string{
		{"A", "C"}, {"B", "D"}, {"A", "E"}, {"B", "F"}, {"A", "D"}, {"C", "A"},
		{"B", "E"}, {"A", "F"}, {"C", "B"}, {"B", "C"}, {"A", "B"}, {"C", "D"},
	}
	for i, q := range stream {
		lo := Value(i * 3)
		s.SelectProject(q[0], store.Range(lo, lo+15), []string{q[1]})
	}
	var names []string
	for attr, set := range s.sets {
		for _, m := range set.Maps() {
			names = append(names, attr+m.tailAttr)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ","), s.StorageTuples()
}

// TestBudgetedMapEvictionIsDeterministic: equal-access ties evict in (set
// attribute, tail attribute) order, never in Go map iteration order, so one
// stream always leaves the same maps behind.
func TestBudgetedMapEvictionIsDeterministic(t *testing.T) {
	maps, tuples := budgetedMapStream()
	if n := strings.Count(maps, ",") + 1; n != 3 || tuples != 300 {
		t.Fatalf("stream should end with the budget's three maps, has %d (%s), %d tuples", n, maps, tuples)
	}
	for run := 0; run < 200; run++ {
		if again, againTuples := budgetedMapStream(); again != maps || againTuples != tuples {
			t.Fatalf("run %d left {%s} (%d tuples), the first run {%s} (%d tuples)", run, again, againTuples, maps, tuples)
		}
	}
}

// TestEvictedMapsKeepTheirKernelCounts: Kernel sums the work done on every
// map the store has had, so dropping a much-cracked map for the budget —
// here for a fresh map of another set, cracked once — never takes its
// partition passes out of the counters.
func TestEvictedMapsKeepTheirKernelCounts(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(5)), 1000, []string{"A", "B", "C"}, 500)
	s := NewStore(rel)
	s.Budget = 2000
	for i := 0; i < 8; i++ {
		lo := Value(i * 50)
		s.SelectProject("A", store.Range(lo, lo+60), []string{"B", "C"})
	}
	before, _, _ := s.Kernel()
	s.SelectProject("B", store.Range(100, 200), []string{"A"})
	if n := len(s.Set("A").Maps()); n != 1 {
		t.Fatalf("S_A keeps %d maps beside the new one of S_B under a two-map budget", n)
	}
	after, _, _ := s.Kernel()
	if after.Visited <= before.Visited || after.Moved < before.Moved || after.InTwo+after.InThree <= before.InTwo+before.InThree {
		t.Fatalf("a map was cracked, yet the kernel counters went from %+v to %+v", before, after)
	}
}

// TestDeleteOfBaseKeysSkipsPendingInserts pins the ledger's baseLen rule: a
// key that was in the base when the set was created cannot be a pending
// insertion, so deleting it never scans the pending insertions — 10k such
// deletes beside 10k pending insertions compare nothing, where scanning
// would compare 10^8 times.
func TestDeleteOfBaseKeysSkipsPendingInserts(t *testing.T) {
	const n = 10000
	rel := buildRel(rand.New(rand.NewSource(6)), n, []string{"A", "B"}, 1000)
	s := NewStore(rel)
	ledgers := []*Pending{s.Set("A").pend, s.Set("B").pend}
	for i := 0; i < n; i++ {
		s.Insert(Value(i), Value(i))
	}
	for key := 0; key < n; key++ {
		s.Delete(key)
	}
	for i, p := range ledgers {
		if p.insScanned != 0 {
			t.Errorf("ledger %d: deleting base keys compared %d pending insertions", i, p.insScanned)
		}
		if len(p.ins) != n || len(p.del) != n {
			t.Errorf("ledger %d: %d pending insertions and %d pending deletions, want %d each", i, len(p.ins), len(p.del), n)
		}
	}
	// A pending insertion is still cancelled by its own delete, not queued
	// behind it.
	s.Delete(n + 7)
	for i, p := range ledgers {
		if len(p.ins) != n-1 || len(p.del) != n || p.insScanned != 8 {
			t.Errorf("ledger %d after cancelling a pending insertion: %d insertions, %d deletions, %d compared",
				i, len(p.ins), len(p.del), p.insScanned)
		}
	}
}

// TestIntoReusesLentMemory pins what a read-only answer does with memory the
// caller lends: a column of a projected attribute that is large enough
// serves the next answer whole, a smaller one is replaced, a column the plan
// does not project leaves the answer, and without lent memory every column
// is exactly the answer's length.
func TestIntoReusesLentMemory(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(9)), 2000, []string{"A", "B", "C"}, 500)
	s := NewStore(rel)
	wide := []AttrPred{{Attr: "A", Pred: store.Range(100, 200)}}
	narrow := []AttrPred{{Attr: "A", Pred: store.Range(120, 150)}}
	answer := func(into *Result, preds []AttrPred, projs ...string) Result {
		t.Helper()
		want := s.MultiSelect(preds, projs, false)
		got, ok := s.MultiSelectROInto(into, preds, projs, false)
		if !ok {
			t.Fatal("the warm query was refused")
		}
		if got.N != want.N || len(got.Cols) != len(want.Cols) {
			t.Fatalf("%d rows in %d columns, want %d in %d", got.N, len(got.Cols), want.N, len(want.Cols))
		}
		for attr, col := range want.Cols {
			if !slices.Equal(got.Cols[attr], col) {
				t.Fatalf("column %s = %v, want %v", attr, got.Cols[attr], col)
			}
		}
		return got
	}

	var lent Result
	first := answer(&lent, wide, "B")
	if first.N == 0 {
		t.Fatal("the query selects nothing")
	}
	col := &first.Cols["B"][0]
	if second := answer(&lent, narrow, "B"); &second.Cols["B"][0] != col || &lent.Cols["B"][0] != col {
		t.Fatal("a smaller answer did not reuse the lent column")
	}
	answer(&lent, narrow, "C", "C") // holds C only: B's lent column goes
	answer(&lent, wide, "B", "C")   // C outgrows its lent column; B comes back

	fresh := answer(nil, wide, "B", "C")
	for attr, c := range fresh.Cols {
		if cap(c) != fresh.N {
			t.Fatalf("%d values in a fresh column %s of capacity %d", fresh.N, attr, cap(c))
		}
		if &c[0] == &lent.Cols[attr][0] {
			t.Fatalf("an answer without lent memory wrote into the lent column %s", attr)
		}
	}
}

// TestAlignTogetherVisitsOnce pins joint alignment as a count: maps that
// lag at one cursor replay each crack once, on one head, so a query over
// two of them visits what a query over one visits. A map that lags further
// replays alone up to its sibling's cursor, then joins it. Either way the
// maps end with equal heads and the answer equals a scan's.
func TestAlignTogetherVisitsOnce(t *testing.T) {
	const k = 6
	rel := buildRel(rand.New(rand.NewSource(11)), 2000, []string{"A", "B", "C", "D"}, 1000)
	nv := &naive{rel: rel, dead: map[int]bool{}}
	pred := func(i int) store.Pred { return store.Range(Value(60*i), Value(60*i+300)) }
	visited := func(s *Store, attrs []string) (n int) {
		for _, attr := range attrs {
			if m := s.SetIfExists("A").MapIfExists(attr); m != nil {
				n += m.Pairs().Stats.Visited
			}
		}
		return n
	}
	// run queries pred(0) projecting first (if any), pred(1..k) projecting
	// lag, then pred(k+1) projecting last, and returns what the last query
	// visited.
	run := func(first, lag, last []string) int {
		s := NewStore(rel)
		if first != nil {
			s.SelectProject("A", pred(0), first)
		}
		for i := 1; i <= k; i++ {
			s.SelectProject("A", pred(i), lag)
		}
		before := visited(s, last)
		res := s.SelectProject("A", pred(k+1), last)
		want := nv.rows([]AttrPred{{Attr: "A", Pred: pred(k + 1)}}, last, false)
		equalRows(t, resultRows(res, last), want, "last query")
		set := s.SetIfExists("A")
		for _, attr := range last {
			m := set.MapIfExists(attr)
			if m.Cursor() != set.TapeLen() {
				t.Fatalf("M_A%s at cursor %d of %d", attr, m.Cursor(), set.TapeLen())
			}
			if !slices.Equal(m.Lead().Head, set.MapIfExists(last[0]).Lead().Head) {
				t.Fatalf("M_A%s head differs from M_A%s", attr, last[0])
			}
		}
		return visited(s, last) - before
	}
	both := []string{"B", "C"}
	together := run(both, []string{"D"}, both)
	alone := run([]string{"B"}, []string{"D"}, []string{"B"})
	if together == 0 || together != alone {
		t.Fatalf("two maps at one cursor visited %d, one map alone %d", together, alone)
	}
	// Staggered: M_AC is new (cursor 0) beside M_AB at cursor k.
	staggered := run(nil, []string{"B"}, both)
	newAlone := run(nil, []string{"B"}, []string{"C"})
	if staggered == 0 || staggered != newAlone {
		t.Fatalf("staggered maps visited %d, the new map alone %d", staggered, newAlone)
	}
}
