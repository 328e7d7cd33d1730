package sideways

import (
	"testing"

	"crackstore/internal/store"
)

// TestPaperFigure3 replays the multi-selection example of Figure 3:
//
//	select D from R where 3<A<10 and 4<B<8 and 1<C<7
//
// over the paper's data, via select_create_bv / select_refine_bv /
// reconstruct on the aligned maps of the chosen set S_A.
func TestPaperFigure3(t *testing.T) {
	a := []Value{12, 3, 5, 9, 8, 22, 7, 26, 4, 2, 7, 9, 2, 6}
	b := []Value{10, 7, 11, 16, 2, 5, 8, 3, 6, 2, 1, 6, 9, 12}
	// The paper's figure lists C = [3,6,2,1,6,9,12,2,11,17,3,...]; the
	// exact values beyond what the figure shows are immaterial — we use a
	// full 14-tuple column consistent with the depicted qualifying rows.
	c := []Value{3, 6, 2, 1, 6, 9, 12, 2, 11, 17, 3, 5, 8, 4}
	d := []Value{9, 4, 2, 10, 12, 19, 3, 6, 5, 8, 1, 7, 11, 13}
	rel := store.NewRelation("R", "A", "B", "C", "D")
	for i := range a {
		rel.AppendRow(a[i], b[i], c[i], d[i])
	}
	s := NewStore(rel)
	preds := []AttrPred{
		{Attr: "A", Pred: store.Open(3, 10)},
		{Attr: "B", Pred: store.Open(4, 8)},
		{Attr: "C", Pred: store.Open(1, 7)},
	}
	res := s.MultiSelect(preds, []string{"D"}, false)

	// Naive reference.
	var want []Value
	for i := range a {
		if a[i] > 3 && a[i] < 10 && b[i] > 4 && b[i] < 8 && c[i] > 1 && c[i] < 7 {
			want = append(want, d[i])
		}
	}
	if res.N != len(want) {
		t.Fatalf("N = %d, want %d", res.N, len(want))
	}
	got := map[Value]int{}
	for _, v := range res.Cols["D"] {
		got[v]++
	}
	for _, v := range want {
		if got[v] == 0 {
			t.Fatalf("missing D value %d", v)
		}
		got[v]--
	}

	// The plan must have used a single map set (the most selective
	// predicate's) with one map per other attribute, all aligned.
	sets := 0
	for _, attr := range []string{"A", "B", "C"} {
		if s.SetIfExists(attr) != nil {
			sets++
		}
	}
	if sets != 1 {
		t.Fatalf("multi-selection materialized %d sets, want 1", sets)
	}
}

// TestFigure3OperatorPipeline exercises the three bit-vector operators
// directly, as the figure shows them: create over the cracked area, refine,
// reconstruct.
func TestFigure3OperatorPipeline(t *testing.T) {
	a := []Value{12, 3, 5, 9, 8, 22, 7, 26, 4, 2, 7, 9, 2, 6}
	b := []Value{10, 7, 11, 16, 2, 5, 8, 3, 6, 2, 1, 6, 9, 12}
	c := []Value{3, 6, 2, 1, 6, 9, 12, 2, 11, 17, 3, 5, 8, 4}
	d := []Value{9, 4, 2, 10, 12, 19, 3, 6, 5, 8, 1, 7, 11, 13}
	rel := store.NewRelation("R", "A", "B", "C", "D")
	for i := range a {
		rel.AppendRow(a[i], b[i], c[i], d[i])
	}
	s := NewStore(rel)
	set := s.Set("A")
	predA := store.Open(3, 10)
	wins := set.Query(predA, []string{"B", "C", "D"}, false)
	lo, hi, used := wins[0].Lo, wins[0].Hi, wins[0].Tails
	if hi <= lo {
		t.Fatal("empty candidate area")
	}
	// All three maps share the cracked area and are positionally aligned.
	for _, m := range set.Maps() {
		l2, _ := m.Lead().Idx.Lookup(predA.LowerBound())
		h2, _ := m.Lead().Idx.Lookup(predA.UpperBound())
		if l2 != lo || h2 != hi {
			t.Fatalf("map areas diverge: [%d,%d) vs [%d,%d)", l2, h2, lo, hi)
		}
	}
	bv := SelectCreateBV(used[0], lo, hi, store.Open(4, 8))
	SelectRefineBV(used[1], lo, hi, store.Open(1, 7), bv)
	got := make([]Value, bv.Count())
	bv.Gather(got, used[2][lo:hi])
	var want []Value
	for i := range a {
		if a[i] > 3 && a[i] < 10 && b[i] > 4 && b[i] < 8 && c[i] > 1 && c[i] < 7 {
			want = append(want, d[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("pipeline returned %d values, want %d", len(got), len(want))
	}
}
