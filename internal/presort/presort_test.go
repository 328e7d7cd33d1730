package presort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

func buildRel(rng *rand.Rand, n int, attrs []string, domain int64) *store.Relation {
	return store.Build("R", n, attrs, func(attr string, row int) Value {
		return Value(rng.Int63n(domain))
	})
}

func TestPrepareSortsAllColumnsTogether(t *testing.T) {
	rel := store.NewRelation("R", "A", "B")
	rel.AppendRow(3, 30)
	rel.AppendRow(1, 10)
	rel.AppendRow(2, 20)
	s := NewStore(rel)
	c := s.Prepare("A")
	if !sort.SliceIsSorted(c.key, func(i, j int) bool { return c.key[i] < c.key[j] }) {
		t.Fatal("copy not sorted")
	}
	for i := 0; i < 3; i++ {
		if c.cols["B"][i] != c.cols["A"][i]*10 {
			t.Fatalf("columns not reordered together: A=%d B=%d", c.cols["A"][i], c.cols["B"][i])
		}
	}
}

func TestAreaBinarySearch(t *testing.T) {
	rel := store.NewRelation("R", "A")
	for _, v := range []Value{5, 1, 9, 3, 7, 5, 5} {
		rel.AppendRow(v)
	}
	s := NewStore(rel)
	c := s.Prepare("A")
	lo, hi := c.Area(store.Point(5))
	if hi-lo != 3 {
		t.Fatalf("point area = %d, want 3", hi-lo)
	}
	lo, hi = c.Area(store.Open(1, 9)) // 1 < v < 9
	if hi-lo != 5 {
		t.Fatalf("open area = %d, want 5", hi-lo)
	}
	lo, hi = c.Area(store.Range(100, 200))
	if hi != lo {
		t.Fatal("out-of-domain area should be empty")
	}
}

// Property: Query agrees with a naive scan for conjunctive and disjunctive
// multi-selections.
func TestQuickQuery(t *testing.T) {
	f := func(seed int64, disjunctive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := buildRel(rng, 200, []string{"A", "B", "C"}, 50)
		s := NewStore(rel)
		for q := 0; q < 10; q++ {
			lo1 := rng.Int63n(50)
			lo2 := rng.Int63n(50)
			preds := []store.Pred{store.Range(lo1, lo1+10), store.Range(lo2, lo2+20)}
			attrs := []string{"A", "B"}
			res := s.Query(preds, attrs, 0, []string{"C"}, disjunctive)
			want := 0
			for i := 0; i < rel.NumRows(); i++ {
				a := rel.MustColumn("A").Vals[i]
				b := rel.MustColumn("B").Vals[i]
				m := preds[0].Matches(a) && preds[1].Matches(b)
				if disjunctive {
					m = preds[0].Matches(a) || preds[1].Matches(b)
				}
				if m {
					want++
				}
			}
			if res.N != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPrepare(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rel := buildRel(rng, 1<<16, []string{"A", "B", "C", "D"}, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewStore(rel).Prepare("A")
	}
}

func BenchmarkQueryAfterPrepare(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rel := buildRel(rng, 1<<16, []string{"A", "B", "C", "D"}, 1<<16)
	s := NewStore(rel)
	s.Prepare("A")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1 << 16)
		s.Query([]store.Pred{store.Range(lo, lo+(1<<13))}, []string{"A"}, 0, []string{"B", "C"}, false)
	}
}

func TestPreparedPresortedIsFastOnQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEngine(buildRel(rng, 5000, []string{"A", "B"}, 5000))
	prep := e.Prepare("A")
	if prep <= 0 {
		t.Fatal("Prepare should take measurable time")
	}
	_, cost := e.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(100, 200)}},
		Projs: []string{"B"},
	})
	if cost.Total() > prep*100 {
		t.Fatalf("query cost %v disproportionate to prepare %v", cost.Total(), prep)
	}
}
