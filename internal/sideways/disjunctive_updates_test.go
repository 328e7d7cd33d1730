package sideways

import (
	"math/rand"
	"testing"

	"crackstore/internal/store"
)

// TestDisjunctiveSeesUnmergedInsert is the regression test for the
// disjunctive-merge bug: a pending insert that matches only a non-head
// disjunct must still appear in the result.
func TestDisjunctiveSeesUnmergedInsert(t *testing.T) {
	rel := store.NewRelation("R", "A", "B", "C")
	rel.AppendRow(10, 500, 1)
	rel.AppendRow(20, 600, 2)
	rel.AppendRow(900, 50, 3)
	s := NewStore(rel)
	// Materialize the set so the insert becomes pending rather than baked.
	s.SelectProject("A", store.Range(0, 1000), []string{"B"})
	// New tuple: A=15 matches the A-disjunct; B=999 does not matter.
	s.Insert(15, 999, 4)
	// Another new tuple: A=800 does NOT match the A-disjunct but its B=55
	// matches the B-disjunct — before the fix this row was lost.
	s.Insert(800, 55, 5)
	res := s.MultiSelect([]AttrPred{
		{Attr: "A", Pred: store.Range(0, 100)}, // head candidate (selective)
		{Attr: "B", Pred: store.Range(40, 60)},
	}, []string{"C"}, true)
	want := map[Value]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	if res.N != len(want) {
		t.Fatalf("N = %d, want %d", res.N, len(want))
	}
	for _, c := range res.Cols["C"] {
		if !want[c] {
			t.Fatalf("unexpected C value %d", c)
		}
	}
}

// TestDisjunctiveSeesUnmergedDelete: a pending deletion outside the head
// predicate's range must be honored by a disjunctive plan.
func TestDisjunctiveSeesUnmergedDelete(t *testing.T) {
	rel := store.NewRelation("R", "A", "B", "C")
	rel.AppendRow(10, 500, 1)
	rel.AppendRow(800, 55, 2) // matches only the B-disjunct
	s := NewStore(rel)
	s.SelectProject("A", store.Range(0, 1000), []string{"B"})
	s.Delete(1)
	res := s.MultiSelect([]AttrPred{
		{Attr: "A", Pred: store.Range(0, 100)},
		{Attr: "B", Pred: store.Range(40, 60)},
	}, []string{"C"}, true)
	if res.N != 1 || res.Cols["C"][0] != 1 {
		t.Fatalf("deleted tuple leaked into disjunction: %v", res.Cols["C"])
	}
}

// Property: disjunctive multi-selections agree with naive under interleaved
// updates (the conjunctive variant is covered by TestQuickUpdates); this
// locks in the FullRange merge behavior.
func TestQuickDisjunctiveWithUpdates(t *testing.T) {
	quickCheck(t, 25, disjunctiveUpdatesProp(NewStore))
}

func TestPartialQuickDisjunctiveWithUpdates(t *testing.T) {
	quickCheck(t, 25, disjunctiveUpdatesProp(NewPartialStore))
}

func disjunctiveUpdatesProp(newStore func(*store.Relation) *Store) func(int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := buildRel(rng, 200, []string{"A", "B", "C"}, 50)
		return updateStream(rng, newStore(rel), &naive{rel: rel, dead: map[int]bool{}}, 40, func(s *Store, nv *naive) (got, want [][]Value) {
			lo1, lo2 := rng.Int63n(50), rng.Int63n(50)
			preds := []AttrPred{
				{Attr: "A", Pred: store.Range(lo1, lo1+10)},
				{Attr: "B", Pred: store.Range(lo2, lo2+10)},
			}
			return resultRows(s.MultiSelect(preds, []string{"C"}, true), []string{"C"}), nv.rows(preds, []string{"C"}, true)
		})
	}
}
