package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crackstore/internal/store"
)

func buildRel(rng *rand.Rand, n int, attrs []string, domain int64) *store.Relation {
	return store.Build("R", n, attrs, func(attr string, row int) Value {
		return Value(rng.Int63n(domain))
	})
}

// cloneRel deep-copies a relation so each engine owns independent storage.
func cloneRel(rel *store.Relation) *store.Relation {
	out := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		src := rel.MustColumn(a).Vals
		dst := out.MustColumn(a)
		dst.Vals = append([]Value(nil), src...)
	}
	return out
}

func canonRows(res Result, projs []string) []string {
	rows := make([]string, res.N)
	for i := 0; i < res.N; i++ {
		row := make([]Value, len(projs))
		for j, attr := range projs {
			row[j] = res.Cols[attr][i]
		}
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return rows
}

// checkResult requires res to hold exactly the oracle's rows, every
// projected column res.N long, and no column it does not project.
func checkResult(t *testing.T, tag string, res Result, projs []string, want []string) {
	t.Helper()
	for attr, col := range res.Cols {
		if !slices.Contains(projs, attr) || len(col) != res.N {
			t.Fatalf("%s: column %s holds %d values for N = %d, projections %v", tag, attr, len(col), res.N, projs)
		}
	}
	if got := canonRows(res, projs); !slices.Equal(got, want) {
		t.Fatalf("%s: %d rows differ from scan's %d", tag, len(got), len(want))
	}
}

func TestMaxPerProj(t *testing.T) {
	res := Result{
		Cols: map[string][]Value{"B": {3, 9, 1}, "C": {7, 2, 8}},
		N:    3,
	}
	m, ok := MaxPerProj(res, []string{"B", "C"})
	if !ok || m["B"] != 9 || m["C"] != 8 {
		t.Fatalf("MaxPerProj = %v, %v", m, ok)
	}
	if _, ok := MaxPerProj(Result{}, []string{"B"}); ok {
		t.Fatal("empty result should report !ok")
	}
}

// TestChurnBuildsNoKeyMap: on uniform data, the deletes of a stream shaped
// like the durable-churn benchmark (narrow queries on A projecting B and C,
// then delete+insert pairs) are all found by value in the two maps the
// queries align, so the store ends with those maps and no key map. The two
// maps are one head group, M_AB owning the head and M_AC a tail, across
// every merged update: storage is a map and a half of every live row.
func TestChurnBuildsNoKeyMap(t *testing.T) {
	const rows = 20000
	rng := rand.New(rand.NewSource(21))
	e := New(Sideways, buildRel(rng, rows, []string{"A", "B", "C"}, rows))
	projs := []string{"B", "C"}
	live := make([]int, rows)
	for i := range live {
		live[i] = i
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			lo := Value(rng.Int63n(rows))
			e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+rows/200)}}, Projs: projs})
		}
		for i := 0; i < 10; i++ {
			j := rng.Intn(len(live))
			e.Delete(live[j])
			live[j] = e.Insert(rng.Int63n(rows), rng.Int63n(rows), rng.Int63n(rows))
		}
	}
	// A query over A's whole domain merges every update still pending.
	res, _ := e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, rows)}}, Projs: projs})
	if res.N != rows {
		t.Fatalf("%d live rows, want %d", res.N, rows)
	}
	if maps := ReportOf(e).Kernel.Columns; maps != 2 || e.Storage() != rows+rows/2 {
		t.Fatalf("%d cracked maps of %d tuples in all, want M_AB of %d and M_AC's tail of %d", maps, e.Storage(), rows, rows/2)
	}
}

func TestStorageReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := buildRel(rng, 100, []string{"A", "B"}, 50)
	for _, k := range Kinds() {
		e := New(k, cloneRel(rel))
		e.Query(Query{
			Preds: []AttrPred{{Attr: "A", Pred: store.Range(10, 30)}},
			Projs: []string{"B"},
		})
		s := e.Storage()
		switch k {
		case Scan:
			if s != 0 {
				t.Errorf("scan storage = %d, want 0", s)
			}
		case PartialSideways:
			if s <= 0 || s > 100 {
				t.Errorf("partial storage = %d, want small positive", s)
			}
		default:
			if s <= 0 {
				t.Errorf("%v storage = %d, want positive", k, s)
			}
		}
	}
}

func TestRelSelect(t *testing.T) {
	base := []Value{5, 15, 25, 35, 45}
	keys := []Value{4, 0, 2}
	got := relSelect(keys, base, store.Range(20, 50))
	if len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("relSelect = %v, want [4 2]", got)
	}
	if got[0] = 0; keys[0] != 4 {
		t.Fatal("relSelect wrote into its input, which may be a cracker column's view")
	}
}
