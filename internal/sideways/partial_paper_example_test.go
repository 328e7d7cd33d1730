package sideways

import (
	"testing"

	"crackstore/internal/store"
)

// TestPaperFigure8 replays the partial-map example of Figure 8 over the
// paper's 14-tuple column and verifies the observable area lifecycle:
// fetched/unfetched transitions, chunk reuse across maps, and exact
// results after each step.
//
//	A = [15 8 19 6 11 2 14 5 12 18 4 9 13 7], keys 1..14 (0..13 here)
func TestPaperFigure8(t *testing.T) {
	a := []Value{15, 8, 19, 6, 11, 2, 14, 5, 12, 18, 4, 9, 13, 7}
	rel := store.NewRelation("R", "A", "B", "C")
	for i, v := range a {
		rel.AppendRow(v, Value(100+i), Value(200+i)) // b_i, c_i tagged by key
	}
	s := NewPartialStore(rel)
	nv := &naive{rel: rel, dead: map[int]bool{}}
	check := func(step string, pred store.Pred, proj string) {
		res := s.SelectProject("A", pred, []string{proj})
		want := nv.rows([]AttrPred{{Attr: "A", Pred: pred}}, []string{proj}, false)
		mustSameRows(t, resultRows(res, []string{proj}), want, step)
	}

	// Query 1: select B where 9 < A <= 15. The gap is cracked and exactly
	// the needed range is fetched: one area (paper: U | F | U).
	q1 := store.Pred{Lo: 9, Hi: 15, LoIncl: false, HiIncl: true}
	check("q1", q1, "B")
	set := s.SetIfExists("A")
	if set.NumAreas() != 1 {
		t.Fatalf("after q1: %d areas, want 1", set.NumAreas())
	}
	if got := areaSpan(set.areas[0]); got != 5 {
		t.Fatalf("after q1: fetched span %d tuples, want 5 (values 11,12,13,14,15)", got)
	}

	// Query 2: select B where 9 < A < 13 — inside the fetched area; the
	// chunk is cracked (tape grows), no new area is fetched.
	tapeBefore := len(set.areas[0].tape)
	check("q2", store.Open(9, 13), "B")
	if set.NumAreas() != 1 {
		t.Fatalf("after q2: %d areas, want 1", set.NumAreas())
	}
	if len(set.areas[0].tape) <= tapeBefore {
		t.Fatal("after q2: boundary crack should have been logged in the area tape")
	}

	// Query 3: select B where 5 <= A < 8 — a second, disjoint area is
	// fetched (paper: v>=5 F, v>=8 U).
	check("q3", store.Range(5, 8), "B")
	if set.NumAreas() != 2 {
		t.Fatalf("after q3: %d areas, want 2", set.NumAreas())
	}

	// Query 4: select C where 8 <= A < 15 — M_AC materializes chunks: the
	// [8,9] gap becomes a third fetched area, and the existing (9,15] area
	// is reused ("a new chunk is created using all tuples in w" — the
	// fetched area is not re-cracked).
	check("q4", store.Range(8, 15), "C")
	if set.NumAreas() != 3 {
		t.Fatalf("after q4: %d areas, want 3", set.NumAreas())
	}
	// The (9,15] area must now hold chunks for both B and C.
	var shared *area
	for _, w := range set.areas {
		if areaSpan(w) == 5 {
			shared = w
		}
	}
	if shared == nil {
		t.Fatal("the q1 area disappeared")
	}
	if shared.maps["B"] == nil || shared.maps["C"] == nil {
		t.Fatalf("shared area should hold B and C chunks, has %d", len(shared.maps))
	}
	// H_A must never have been cracked inside a fetched area: every area
	// span must still match its recorded bounds.
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func areaSpan(w *area) int { return w.hi - w.lo }

// TestFigure8ChunkIndependence verifies the "each chunk is treated
// independently" property: cracking one area's chunks leaves the cursors
// and tapes of other areas untouched.
func TestFigure8ChunkIndependence(t *testing.T) {
	a := []Value{15, 8, 19, 6, 11, 2, 14, 5, 12, 18, 4, 9, 13, 7}
	rel := store.NewRelation("R", "A", "B")
	for i, v := range a {
		rel.AppendRow(v, Value(100+i))
	}
	s := NewPartialStore(rel)
	s.SelectProject("A", store.Pred{Lo: 9, Hi: 15, LoIncl: false, HiIncl: true}, []string{"B"})
	s.SelectProject("A", store.Range(2, 8), []string{"B"})
	set := s.SetIfExists("A")
	if set.NumAreas() != 2 {
		t.Fatalf("%d areas, want 2", set.NumAreas())
	}
	w0, w1 := set.areas[0], set.areas[1]
	t0, t1 := len(w0.tape), len(w1.tape)
	// Crack only inside the first (by value) area.
	s.SelectProject("A", store.Range(3, 6), []string{"B"})
	if len(w1.tape) > t1 && len(w0.tape) > t0 {
		t.Fatal("a query inside one area grew both tapes")
	}
}
