package engine

import (
	"math/rand"
	"testing"
	"time"

	"crackstore/internal/store"
)

// TestKindStrings: every served kind has a name KindByName maps back;
// nothing else has a name.
func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Scan: "scan", SelCrack: "selcrack", Sideways: "sideways", PartialSideways: "partial",
	}
	if len(Kinds()) != len(want) {
		t.Fatalf("Kinds() = %v, want the %d served kinds", Kinds(), len(want))
	}
	for _, k := range Kinds() {
		if k.String() != want[k] {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want[k])
		}
		if got, ok := KindByName(want[k]); !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", want[k], got, ok)
		}
	}
	for _, name := range []string{"presorted", "rowstore", "unknown"} {
		if k, ok := KindByName(name); ok {
			t.Errorf("KindByName(%q) = %v, want no kind", name, k)
		}
	}
	if s := Kind(42).String(); s != "unknown" {
		t.Errorf("Kind(42).String() = %q", s)
	}
}

// TestNamesAndNoopPrepare: every served engine reports the kind it was
// built as, bare and behind either guard, and none has an offline step:
// only the presorted baselines outside this package have a Prepare method.
func TestNamesAndNoopPrepare(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(1)), 50, []string{"A", "B"}, 10)
	type preparer interface{ Prepare(...string) time.Duration }
	for _, k := range Kinds() {
		bare := New(k, cloneRel(rel))
		for _, e := range []Engine{bare, Concurrent(bare), Snapshot(New(k, cloneRel(rel)))} {
			if e.Kind() != k {
				t.Errorf("%v: engine %T of kind %v", k, e, e.Kind())
			}
			if _, ok := e.(preparer); ok {
				t.Errorf("%v: engine %T has an offline Prepare step", k, e)
			}
		}
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

// TestIntoOnEveryKind: a map-set engine's read-only answer is written into
// the memory lent in Query.Into, and one lent Result serves answers of
// different projections in turn; the other kinds leave it alone. (That
// every kind answers the same with and without it is FuzzStacksAgree's.)
func TestIntoOnEveryKind(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(13)), 3000, []string{"A", "B", "C"}, 100)
	preds := []AttrPred{{Attr: "A", Pred: store.Range(20, 60)}, {Attr: "C", Pred: store.Range(10, 90)}}
	for _, k := range Kinds() {
		e := New(k, cloneRel(rel))
		var lent Result
		for _, projs := range [][]string{{"B", "C"}, {"C"}, {"A", "B", "B"}, {"B", "C"}} {
			q := Query{Preds: preds, Projs: projs}
			e.Query(q)
			q.Into = &lent
			res, _, ok := e.QueryRO(q)
			if !ok {
				t.Fatalf("%v %v: QueryRO refused a query Query just answered", k, projs)
			}
			aliased := res.N > 0 && lent.N == res.N && &lent.Cols[projs[0]][0] == &res.Cols[projs[0]][0]
			if aliased != (k == Sideways || k == PartialSideways) {
				t.Fatalf("%v %v: the answer aliases the lent memory: %v", k, projs, aliased)
			}
		}
	}
}
