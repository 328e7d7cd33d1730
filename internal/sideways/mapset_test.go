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
		for tail := range set.maps {
			names = append(names, attr+tail)
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
	b := NewBase(rel)
	ledgers := []*Pending{NewPending(&b, "A"), NewPending(&b, "B")}
	for i := 0; i < n; i++ {
		b.Insert(Value(i), Value(i))
	}
	for key := 0; key < n; key++ {
		b.Delete(key)
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
	b.Delete(n + 7)
	for i, p := range ledgers {
		if len(p.ins) != n-1 || len(p.del) != n || p.insScanned != 8 {
			t.Errorf("ledger %d after cancelling a pending insertion: %d insertions, %d deletions, %d compared",
				i, len(p.ins), len(p.del), p.insScanned)
		}
	}
}

// TestReleaseRecyclesOnce pins the ownership rule of the result free list:
// a released column serves the next result of its size class, a column the
// list did not hand out never enters it, and a second Release — of the same
// Result or of a copy — hands nothing back, least of all the column's next
// owner's. Poisoning makes any breach a wrong answer.
func TestReleaseRecyclesOnce(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	rel := buildRel(rand.New(rand.NewSource(9)), 2000, []string{"A", "B", "C"}, 500)
	s := NewStore(rel)
	preds := []AttrPred{{Attr: "A", Pred: store.Range(100, 200)}}
	want := s.MultiSelect(preds, []string{"B"}, false).Cols["B"]
	if len(want) == 0 {
		t.Fatal("the query selects nothing")
	}
	answer := func() Result {
		t.Helper()
		res, ok := s.MultiSelectRO(preds, []string{"B"}, false)
		if !ok {
			t.Fatal("the warm query was refused")
		}
		if !slices.Equal(res.Cols["B"], want) {
			t.Fatalf("answer %v, want %v", res.Cols["B"], want)
		}
		return res
	}
	idle := func() int {
		results.Lock()
		defer results.Unlock()
		return results.Idle()
	}

	// Until a process releases for the first time its columns are allocated
	// exactly, and file under the class below; from then on, in their class.
	answer().Release()
	first := answer()
	col, base := &first.Cols["B"][0], idle()
	first.Release()
	if got := idle() - base; got != store.ClassUp(len(want)) {
		t.Fatalf("Release filed %d values, want the column's class of %d", got, store.ClassUp(len(want)))
	}
	second := answer() // overwrote all of the poisoned column
	if &second.Cols["B"][0] != col {
		t.Fatal("the released column did not serve the next result of its size")
	}
	stale := first // a copy shares the record of what was drawn
	stale.Release()
	first.Release()
	if !slices.Equal(second.Cols["B"], want) || idle() != base {
		t.Fatal("a second Release took the column back from its next owner")
	}
	if third := answer(); &third.Cols["B"][0] == col {
		t.Fatal("one column serves two live results")
	}

	// What the list did not hand out never enters it.
	base = idle()
	foreign := Result{Cols: map[string][]Value{"B": slices.Clone(want)}, N: len(want)}
	foreign.Release()
	Result{}.Release()
	if !slices.Equal(foreign.Cols["B"], want) || idle() != base {
		t.Fatal("Release took a column the list never handed out")
	}
}
