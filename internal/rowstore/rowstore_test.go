package rowstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"crackstore/internal/engine"
	"crackstore/internal/presort"
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

// canonRows renders res's rows over projs, sorted, for multiset comparison.
func canonRows(res engine.Result, projs []string) []string {
	rows := make([]string, res.N)
	for i := range rows {
		row := make([]Value, len(projs))
		for j, attr := range projs {
			row[j] = res.Cols[attr][i]
		}
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return rows
}

func TestRowStoreEngineAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := store.Build("R", 300, []string{"A", "B", "C"}, func(string, int) Value { return rng.Int63n(50) })
	scan := engine.New(engine.Scan, rel)
	rs := NewEngine(rel)
	rs.Prepare("A")
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(50)
		query := engine.Query{
			Preds: []engine.AttrPred{
				{Attr: "A", Pred: store.Range(lo, lo+15)},
				{Attr: "B", Pred: store.Range(5, 40)},
			},
			Projs:       []string{"C"},
			Disjunctive: q%3 == 2,
		}
		a, _ := scan.Query(query)
		b, _ := rs.Query(query)
		ra, rb := canonRows(a, query.Projs), canonRows(b, query.Projs)
		if len(ra) != len(rb) {
			t.Fatalf("q%d: rowstore %d rows, scan %d", q, len(rb), len(ra))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("q%d row %d: %s vs %s", q, i, rb[i], ra[i])
			}
		}
	}
	if rs.Storage() == 0 {
		t.Error("prepared rowstore should report sorted-copy storage")
	}
}

// TestRowStoreReadOnlyPanics: both paper baselines are read-only.
func TestRowStoreReadOnlyPanics(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(3)), 10)
	for _, e := range []engine.Engine{NewEngine(rel), presort.NewEngine(rel)} {
		for name, f := range map[string]func(){
			"Insert": func() { e.Insert(1, 2, 3) },
			"Delete": func() { e.Delete(0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on %T should panic", name, e)
					}
				}()
				f()
			}()
		}
	}
}
