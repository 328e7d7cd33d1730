package crackstore_test

import (
	"fmt"

	crackstore "crackstore"
)

// Example shows the core loop: open a relation under sideways cracking and
// query it — every query physically reorganizes the cracker maps so later
// queries get faster, with no index creation or presorting.
func Example() {
	rel := crackstore.NewRelation("orders", "amount", "customer")
	for i := 0; i < 8; i++ {
		rel.AppendRow(crackstore.Value(i*10), crackstore.Value(100+i))
	}
	e := crackstore.Open(crackstore.Sideways, rel)
	res, _ := e.Query(crackstore.Query{
		Preds: []crackstore.AttrPred{{Attr: "amount", Pred: crackstore.Range(20, 60)}},
		Projs: []string{"customer"},
	})
	fmt.Println("matching customers:", res.N)
	// Output: matching customers: 4
}

// ExampleQuery_multiSelection demonstrates a conjunctive multi-attribute
// query: the engine picks the most selective predicate's map set via its
// self-organizing histograms and filters with a bit vector.
func ExampleQuery_multiSelection() {
	rel := crackstore.NewRelation("t", "a", "b", "c")
	rel.AppendRow(1, 10, 100)
	rel.AppendRow(2, 20, 200)
	rel.AppendRow(3, 30, 300)
	rel.AppendRow(4, 40, 400)
	e := crackstore.Open(crackstore.Sideways, rel)
	res, _ := e.Query(crackstore.Query{
		Preds: []crackstore.AttrPred{
			{Attr: "a", Pred: crackstore.Range(2, 5)},
			{Attr: "b", Pred: crackstore.Range(0, 35)},
		},
		Projs: []string{"c"},
	})
	fmt.Println(res.Cols["c"])
	// Output: [200 300]
}

// ExampleBuildDict shows string cracking: an order-preserving dictionary
// turns prefix predicates into integer ranges the cracking engines handle.
func ExampleBuildDict() {
	d := crackstore.BuildDict([]string{"paris", "porto", "prague", "rome"})
	p := d.PrefixPred("p")
	code, _ := d.Code("prague")
	fmt.Println(p.Matches(code))
	code, _ = d.Code("rome")
	fmt.Println(p.Matches(code))
	// Output:
	// true
	// false
}

// ExampleCrackerJoin joins two relations partition-wise over their cracker
// maps (Section 3.4's partitioned join).
func ExampleCrackerJoin() {
	l := crackstore.NewRelation("L", "k", "x")
	r := crackstore.NewRelation("R", "k", "y")
	for i := 0; i < 6; i++ {
		l.AppendRow(crackstore.Value(i), crackstore.Value(i*i))
		r.AppendRow(crackstore.Value(i*2), crackstore.Value(i))
	}
	le := crackstore.Open(crackstore.Sideways, l)
	re := crackstore.Open(crackstore.Sideways, r)
	pairs, _ := crackstore.CrackerJoin(le, "k", re, "k", 4)
	fmt.Println("matches:", len(pairs)) // k values 0,2,4 exist on both sides
	// Output: matches: 3
}

// ExampleOpenWith configures partial sideways cracking with a storage
// budget. Its chunks are tails alone, whose head the chunk map holds, so
// each costs half its tuples.
func ExampleOpenWith() {
	rel := crackstore.NewRelation("t", "a", "b")
	for i := 0; i < 1000; i++ {
		rel.AppendRow(crackstore.Value(i), crackstore.Value(i%7))
	}
	e := crackstore.OpenWith(crackstore.PartialSideways, rel, crackstore.Options{
		Budget: 500, // at most 500 tuples of chunk storage
	})
	res, _ := e.Query(crackstore.Query{
		Preds: []crackstore.AttrPred{{Attr: "a", Pred: crackstore.Range(100, 200)}},
		Projs: []string{"b"},
	})
	fmt.Println(res.N, e.Storage() <= 500)
	// Output: 100 true
}
