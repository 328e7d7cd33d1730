package rowstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

func buildRel(rng *rand.Rand, n int) *store.Relation {
	return store.Build("R", n, []string{"A", "B", "C"}, func(string, int) Value {
		return Value(rng.Int63n(100))
	})
}

func TestNewPreservesRows(t *testing.T) {
	rel := store.NewRelation("R", "A", "B")
	rel.AppendRow(1, 10)
	rel.AppendRow(2, 20)
	tab := New(rel)
	if len(tab.Rows) != 2 || tab.Rows[1][tab.Field("B")] != 20 {
		t.Fatal("rows not built correctly")
	}
}

func TestSortByAndBinarySearchSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := buildRel(rng, 500)
	tab := New(rel).SortBy("A")
	preds := []Pred{{Attr: "A", P: store.Range(20, 40)}, {Attr: "B", P: store.Range(0, 50)}}
	got := tab.Select(preds, "A")
	want := 0
	for i := 0; i < rel.NumRows(); i++ {
		if preds[0].P.Matches(rel.MustColumn("A").Vals[i]) && preds[1].P.Matches(rel.MustColumn("B").Vals[i]) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("Select = %d rows, want %d", len(got), want)
	}
}

// Property: sorted and unsorted select agree.
func TestQuickSortedUnsortedAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := buildRel(rng, 300)
		plain := New(rel)
		sorted := plain.SortBy("A")
		for q := 0; q < 10; q++ {
			lo := rng.Int63n(100)
			preds := []Pred{
				{Attr: "A", P: store.Range(lo, lo+20)},
				{Attr: "C", P: store.Range(10, 90)},
			}
			a := plain.Select(preds, "")
			b := sorted.Select(preds, "A")
			if len(a) != len(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
