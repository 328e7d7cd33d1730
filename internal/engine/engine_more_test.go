package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Scan: "scan", SelCrack: "selcrack", Presorted: "presorted",
		Sideways: "sideways", PartialSideways: "partial", RowStore: "rowstore",
		Kind(42): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestNamesAndNoopPrepare: every engine reports the kind it was built as,
// and only the presorted designs have an offline step; Prepare costs 0 on
// every other engine and through any wrapper.
func TestNamesAndNoopPrepare(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(1)), 50, []string{"A", "B"}, 10)
	for _, k := range []Kind{Scan, SelCrack, Sideways, PartialSideways} {
		e := New(k, cloneRel(rel))
		if e.Kind() != k {
			t.Errorf("%v: engine of kind %v", k, e.Kind())
		}
		if d := Prepare(e, "A"); d != 0 {
			t.Errorf("%v: Prepare should be a no-op, took %v", k, d)
		}
	}
	if d := Prepare(Concurrent(New(Presorted, cloneRel(rel))), "A"); d != 0 {
		t.Errorf("Prepare reached a presorted engine through its guard, took %v", d)
	}
}

func TestRowStoreEngineAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := buildRel(rng, 300, []string{"A", "B", "C"}, 50)
	scan := New(Scan, cloneRel(rel))
	rs := New(RowStore, cloneRel(rel))
	Prepare(rs, "A")
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(50)
		query := Query{
			Preds: []AttrPred{
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

func TestRowStoreReadOnlyPanics(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(3)), 10, []string{"A"}, 10)
	e := New(RowStore, rel)
	for name, f := range map[string]func(){
		"Insert": func() { e.Insert(1) },
		"Delete": func() { e.Delete(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on rowstore should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBudgetedConstructors(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(4)), 200, []string{"A", "B", "C"}, 50)
	q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 25)}}, Projs: []string{"B"}}

	se := NewWith(Sideways, cloneRel(rel), Options{Budget: 450})
	for i := 0; i < 5; i++ {
		se.Query(q)
	}
	if se.Storage() > 450 {
		t.Errorf("sideways budget exceeded: %d", se.Storage())
	}
	// The budget must exceed one query's working set (a ~104-tuple chunk
	// here); below that the engine documents a soft overrun.
	pe := NewPartialWithBudget(cloneRel(rel), 150)
	for i := 0; i < 8; i++ {
		lo := Value(i * 6)
		pe.Query(Query{
			Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+25)}},
			Projs: []string{"B", "C"},
		})
	}
	if pe.Storage() > 150 {
		t.Errorf("partial budget exceeded: %d", pe.Storage())
	}
}

func TestJoinCostTotal(t *testing.T) {
	jc := JoinCost{PreSel: 1, Join: 2, PostTR: 3}
	if jc.Total() != 6 {
		t.Fatalf("Total = %d", jc.Total())
	}
}

// Property: all five updatable engines agree on disjunctive queries under
// interleaved updates.
func TestQuickEnginesAgreeDisjunctiveWithUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := buildRel(rng, 150, []string{"A", "B", "C"}, 40)
		engines := make([]Engine, 0, 5)
		for _, k := range allKinds() {
			engines = append(engines, New(k, cloneRel(base)))
		}
		var live []int
		for i := 0; i < 150; i++ {
			live = append(live, i)
		}
		for step := 0; step < 25; step++ {
			switch rng.Intn(5) {
			case 0:
				vals := []Value{rng.Int63n(40), rng.Int63n(40), rng.Int63n(40)}
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
				lo1, lo2 := rng.Int63n(40), rng.Int63n(40)
				query := Query{
					Preds: []AttrPred{
						{Attr: "A", Pred: store.Range(lo1, lo1+8)},
						{Attr: "B", Pred: store.Range(lo2, lo2+8)},
					},
					Projs:       []string{"C"},
					Disjunctive: true,
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

// TestRepeatedProjection: a projection named twice — by the caller, or by
// joinSide appending the join attribute to a list that already has it — is
// one column of N values on every engine, on the write path and read-only.
func TestRepeatedProjection(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(9)), 300, []string{"A", "B", "C"}, 60)
	engines := []Engine{NewWith(Sideways, cloneRel(rel), Options{Budget: 900}), NewPartialWithBudget(cloneRel(rel), 600)}
	for _, k := range allKinds() {
		engines = append(engines, New(k, cloneRel(rel)))
	}
	oracle := NewScan(cloneRel(rel))
	narrow := []AttrPred{{Attr: "A", Pred: store.Range(20, 30)}}
	wide := []AttrPred{{Attr: "A", Pred: store.Range(10, 50)}, {Attr: "C", Pred: store.Range(5, 55)}}
	queries := []Query{
		{Preds: narrow, Projs: []string{"B"}}, // partial maps: the wide queries span three areas
		{Preds: wide[:1], Projs: []string{"B", "B"}},
		{Preds: wide, Projs: []string{"B", "C", "B"}},
		{Preds: wide, Projs: []string{"B", "B"}, Disjunctive: true},
	}
	for _, e := range engines {
		for _, q := range queries {
			want, _ := oracle.Query(q)
			tag := fmt.Sprintf("%v %+v", e.Kind(), q)
			res, _ := e.Query(q)
			checkResult(t, tag, res, q.Projs, canonRows(want, q.Projs))
			if res, _, ok := e.QueryRO(q); ok {
				checkResult(t, tag+" QueryRO", res, q.Projs, canonRows(want, q.Projs))
			} else if !q.Disjunctive && (e.Kind() == Sideways || e.Kind() == PartialSideways) {
				// (A disjunctive plan may pick another set once this one exists.)
				t.Errorf("%s: QueryRO refused a query Query just answered", tag)
			}
		}
		side := JoinSide{E: oracle, Preds: wide, JoinAttr: "B", Projs: []string{"B"}}
		want := joinRows(joinSide(side), side.Projs)
		side.E = e
		checkRows(t, e.Kind().String()+" join side", joinRows(joinSide(side), side.Projs), want)
	}
}

// TestCountWithoutProjections: one predicate and nothing projected is a
// count. The map-set engines answered 0 — a set with no tail asked of it had
// no map to read the area from — on every kind, cold and warm, Query and
// QueryRO, with updates in between.
func TestCountWithoutProjections(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(11)), 1000, []string{"A", "B"}, 1000)
	engines := []Engine{NewWith(Sideways, cloneRel(rel), Options{Budget: 2000}), NewPartialWithBudget(cloneRel(rel), 1500)}
	for _, k := range allKinds() {
		engines = append(engines, New(k, cloneRel(rel)))
	}
	oracle := NewScan(cloneRel(rel))
	q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Pred{Lo: 100, Hi: 300, LoIncl: true, HiIncl: true}}}}
	for round := 0; round < 3; round++ {
		want, _ := oracle.Query(q)
		if want.N == 0 {
			t.Fatal("the scan finds nothing to count")
		}
		for _, e := range engines {
			if res, _ := e.Query(q); res.N != want.N {
				t.Errorf("round %d, %v: Query counts %d, scan %d", round, e.Kind(), res.N, want.N)
			}
			res, _, ok := e.QueryRO(q)
			if !ok {
				t.Errorf("round %d, %v: QueryRO refused a query Query just answered", round, e.Kind())
			} else if res.N != want.N {
				t.Errorf("round %d, %v: QueryRO counts %d, scan %d", round, e.Kind(), res.N, want.N)
			}
		}
		for _, e := range append(engines, oracle) {
			e.Insert(200+Value(round), 7)
			e.Delete(round)
		}
	}
}

// TestIntoOnEveryKind: every kind answers the same with and without memory
// lent in Query.Into, and one lent Result serves answers of different
// projections in turn. A map-set engine's read-only answer is written into
// the lent memory; the other kinds leave it alone.
func TestIntoOnEveryKind(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(13)), 3000, []string{"A", "B", "C"}, 100)
	oracle := NewScan(cloneRel(rel))
	preds := []AttrPred{{Attr: "A", Pred: store.Range(20, 60)}, {Attr: "C", Pred: store.Range(10, 90)}}
	for _, k := range append(allKinds(), RowStore) {
		e := New(k, cloneRel(rel))
		var lent Result
		for _, projs := range [][]string{{"B", "C"}, {"C"}, {"A", "B", "B"}, {"B", "C"}} {
			tag := fmt.Sprintf("%v %v", k, projs)
			q := Query{Preds: preds, Projs: projs}
			res, _ := oracle.Query(q)
			want := canonRows(res, projs)
			res, _ = e.Query(q)
			checkResult(t, tag+" Query", res, projs, want)
			q.Into = &lent
			res, _, ok := e.QueryRO(q)
			if !ok {
				t.Fatalf("%s: QueryRO refused a query Query just answered", tag)
			}
			checkResult(t, tag+" QueryRO into lent memory", res, projs, want)
			aliased := res.N > 0 && lent.N == res.N && &lent.Cols[projs[0]][0] == &res.Cols[projs[0]][0]
			if aliased != (k == Sideways || k == PartialSideways) {
				t.Fatalf("%s: the answer aliases the lent memory: %v", tag, aliased)
			}
		}
	}
}
