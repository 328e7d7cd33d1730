package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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

func allKinds() []Kind {
	return []Kind{Scan, SelCrack, Presorted, Sideways, PartialSideways}
}

// TestAllEnginesAgree replays an identical read-only workload on all five
// engines and requires identical result multisets.
func TestAllEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := buildRel(rng, 400, []string{"A", "B", "C", "D"}, 100)
	engines := make([]Engine, 0, 5)
	for _, k := range allKinds() {
		engines = append(engines, New(k, cloneRel(base)))
	}
	for q := 0; q < 30; q++ {
		lo := rng.Int63n(100)
		hi := lo + rng.Int63n(100-lo+1)
		lo2 := rng.Int63n(100)
		query := Query{
			Preds: []AttrPred{
				{Attr: "A", Pred: store.Range(lo, hi)},
				{Attr: "B", Pred: store.Range(lo2, lo2+30)},
			},
			Projs:       []string{"C", "D"},
			Disjunctive: q%5 == 4,
		}
		var ref []string
		for i, e := range engines {
			res, _ := e.Query(query)
			got := canonRows(res, query.Projs)
			if i == 0 {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("q%d: %v returned %d rows, scan returned %d", q, e.Kind(), len(got), len(ref))
			}
			for j := range ref {
				if got[j] != ref[j] {
					t.Fatalf("q%d: %v row %d = %s, want %s", q, e.Kind(), j, got[j], ref[j])
				}
			}
		}
	}
}

// Property: all engines agree under interleaved updates and queries.
func TestQuickEnginesAgreeWithUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := buildRel(rng, 200, []string{"A", "B", "C"}, 50)
		engines := make([]Engine, 0, 5)
		for _, k := range allKinds() {
			engines = append(engines, New(k, cloneRel(base)))
		}
		var live []int
		for i := 0; i < 200; i++ {
			live = append(live, i)
		}
		for step := 0; step < 40; step++ {
			switch rng.Intn(5) {
			case 0:
				vals := []Value{rng.Int63n(50), rng.Int63n(50), rng.Int63n(50)}
				var key int
				for _, e := range engines {
					key = e.Insert(vals...)
				}
				live = append(live, key)
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					k := live[i]
					live = append(live[:i], live[i+1:]...)
					for _, e := range engines {
						e.Delete(k)
					}
				}
			default:
				lo := rng.Int63n(50)
				hi := lo + rng.Int63n(50-lo+1)
				query := Query{
					Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, hi)}},
					Projs: []string{"B", "C"},
				}
				var ref []string
				for i, e := range engines {
					res, _ := e.Query(query)
					got := canonRows(res, query.Projs)
					if i == 0 {
						ref = got
						continue
					}
					if len(got) != len(ref) {
						return false
					}
					for j := range ref {
						if got[j] != ref[j] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
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

// TestJoinMaxAllEnginesAgree verifies the q2-style join plan across all
// engine kinds against a naive nested-loop reference.
func TestJoinMaxAllEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	relR := buildRel(rng, 200, []string{"R1", "R2", "R3", "R7"}, 60)
	relS := buildRel(rng, 200, []string{"S1", "S2", "S3", "S7"}, 60)
	lPreds := []AttrPred{{Attr: "R3", Pred: store.Range(10, 40)}}
	rPreds := []AttrPred{{Attr: "S3", Pred: store.Range(20, 50)}}

	// Naive reference.
	want := map[string]Value{}
	found := false
	for i := 0; i < 200; i++ {
		if !lPreds[0].Pred.Matches(relR.MustColumn("R3").Vals[i]) {
			continue
		}
		for j := 0; j < 200; j++ {
			if !rPreds[0].Pred.Matches(relS.MustColumn("S3").Vals[j]) {
				continue
			}
			if relR.MustColumn("R7").Vals[i] != relS.MustColumn("S7").Vals[j] {
				continue
			}
			found = true
			for _, a := range []string{"R1", "R2"} {
				v := relR.MustColumn(a).Vals[i]
				if cur, ok := want["L."+a]; !ok || v > cur {
					want["L."+a] = v
				}
			}
			for _, a := range []string{"S1", "S2"} {
				v := relS.MustColumn(a).Vals[j]
				if cur, ok := want["R."+a]; !ok || v > cur {
					want["R."+a] = v
				}
			}
		}
	}
	if !found {
		t.Skip("degenerate workload: no join matches")
	}

	for _, k := range allKinds() {
		le := New(k, cloneRel(relR))
		re := New(k, cloneRel(relS))
		got, _ := JoinMax(
			JoinSide{E: le, Preds: lPreds, JoinAttr: "R7", Projs: []string{"R1", "R2"}},
			JoinSide{E: re, Preds: rPreds, JoinAttr: "S7", Projs: []string{"S1", "S2"}},
		)
		for key, w := range want {
			if got[key] != w {
				t.Fatalf("%v: JoinMax[%s] = %d, want %d", k, key, got[key], w)
			}
		}
	}
}

func TestPreparedPresortedIsFastOnQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := buildRel(rng, 5000, []string{"A", "B"}, 5000)
	e := New(Presorted, rel)
	prep := Prepare(e, "A")
	if prep <= 0 {
		t.Fatal("Prepare should take measurable time")
	}
	_, cost := e.Query(Query{
		Preds: []AttrPred{{Attr: "A", Pred: store.Range(100, 200)}},
		Projs: []string{"B"},
	})
	if cost.Total() > prep*100 {
		t.Fatalf("query cost %v disproportionate to prepare %v", cost.Total(), prep)
	}
}

// TestChurnBuildsNoKeyMap: on uniform data, the deletes of a stream shaped
// like the durable-churn benchmark (narrow queries on A projecting B and C,
// then delete+insert pairs) are all found by value in the two maps the
// queries align, so the store ends with those maps and no key map: storage
// is two maps of every live row.
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
	if maps := ReportOf(e).Kernel.Columns; maps != 2 || e.Storage() != 2*rows {
		t.Fatalf("%d cracked maps of %d tuples in all, want M_AB and M_AC of %d each", maps, e.Storage(), rows)
	}
}

func TestStorageReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := buildRel(rng, 100, []string{"A", "B"}, 50)
	for _, k := range allKinds() {
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
