package crackstore_test

import (
	"math/rand"
	"testing"

	crackstore "crackstore"
)

func demoRelation(n int, seed int64) *crackstore.Relation {
	rng := rand.New(rand.NewSource(seed))
	return crackstore.Build("R", n, []string{"A", "B", "C"},
		func(string, int) crackstore.Value { return rng.Int63n(1000) })
}

func TestOpenAllKinds(t *testing.T) {
	kinds := []crackstore.Kind{
		crackstore.Scan, crackstore.SelCrack, crackstore.Sideways, crackstore.PartialSideways,
	}
	q := crackstore.Query{
		Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(100, 300)}},
		Projs: []string{"B"},
	}
	var ref int
	for i, k := range kinds {
		e := crackstore.Open(k, demoRelation(500, 7))
		res, cost := e.Query(q)
		if cost.Total() < 0 {
			t.Fatalf("%v: negative cost", k)
		}
		if i == 0 {
			ref = res.N
			continue
		}
		if res.N != ref {
			t.Fatalf("%v returned %d rows, want %d", k, res.N, ref)
		}
	}
}

func TestPredicateConstructors(t *testing.T) {
	if !crackstore.Range(1, 5).Matches(1) || crackstore.Range(1, 5).Matches(5) {
		t.Fatal("Range semantics")
	}
	if crackstore.OpenRange(1, 5).Matches(1) {
		t.Fatal("OpenRange semantics")
	}
	if !crackstore.Point(3).Matches(3) || crackstore.Point(3).Matches(4) {
		t.Fatal("Point semantics")
	}
}

func TestStoreAccessors(t *testing.T) {
	side := crackstore.Open(crackstore.Sideways, demoRelation(100, 1))
	if crackstore.SidewaysStore(side) == nil {
		t.Fatal("SidewaysStore should unwrap a sideways engine")
	}
	if crackstore.PartialStore(side) != nil {
		t.Fatal("PartialStore must not unwrap a sideways engine")
	}
	part := crackstore.OpenWith(crackstore.PartialSideways, demoRelation(100, 1),
		crackstore.Options{Budget: 1000})
	if crackstore.PartialStore(part) == nil {
		t.Fatal("PartialStore should unwrap a partial engine")
	}
}

func TestBudgetedOpeners(t *testing.T) {
	rel := demoRelation(1000, 2)
	e := crackstore.OpenWith(crackstore.PartialSideways, rel, crackstore.Options{Budget: 500})
	for i := 0; i < 10; i++ {
		e.Query(crackstore.Query{
			Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(crackstore.Value(i*90), crackstore.Value(i*90+200))}},
			Projs: []string{"B"},
		})
		if e.Storage() > 500 {
			t.Fatalf("budget exceeded: %d", e.Storage())
		}
	}
	e2 := crackstore.OpenWith(crackstore.Sideways, demoRelation(1000, 2), crackstore.Options{Budget: 2500})
	e2.Query(crackstore.Query{
		Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(0, 100)}},
		Projs: []string{"B", "C"},
	})
	if e2.Storage() == 0 {
		t.Fatal("sideways should have materialized maps")
	}
}

func TestJoinMaxPublic(t *testing.T) {
	l := crackstore.Open(crackstore.Sideways, demoRelation(300, 3))
	r := crackstore.Open(crackstore.Sideways, demoRelation(300, 4))
	maxes, cost := crackstore.JoinMax(
		crackstore.JoinSide{E: l, Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(0, 800)}}, JoinAttr: "C", Projs: []string{"B"}},
		crackstore.JoinSide{E: r, Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(0, 800)}}, JoinAttr: "C", Projs: []string{"B"}},
	)
	if cost.Total() <= 0 {
		t.Fatal("join cost should be positive")
	}
	if _, ok := maxes["L.B"]; !ok {
		t.Fatal("missing L.B max")
	}
}
