package tpch

import (
	"math/rand"
	"testing"

	"crackstore/internal/engine"
	"crackstore/internal/presort"
	"crackstore/internal/rowstore"
	"crackstore/internal/store"
)

// served is the constructor of one of the kinds the store serves.
func served(k engine.Kind) func(*store.Relation) engine.Engine {
	return func(rel *store.Relation) engine.Engine { return engine.New(k, rel) }
}

func newPresorted(rel *store.Relation) engine.Engine { return presort.NewEngine(rel) }
func newRowStore(rel *store.Relation) engine.Engine  { return rowstore.NewEngine(rel) }

func smallData(t testing.TB) *Data {
	t.Helper()
	return Generate(0.002, 42) // ~3000 orders, ~12000 lineitems
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 7)
	b := Generate(0.001, 7)
	if a.Lineitem.NumRows() != b.Lineitem.NumRows() {
		t.Fatal("row counts differ")
	}
	av := a.Lineitem.MustColumn("l_extendedprice").Vals
	bv := b.Lineitem.MustColumn("l_extendedprice").Vals
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
}

func TestGenerateShape(t *testing.T) {
	d := smallData(t)
	li := d.Lineitem
	n := li.NumRows()
	if n == 0 {
		t.Fatal("empty lineitem")
	}
	ship := li.MustColumn("l_shipdate").Vals
	receipt := li.MustColumn("l_receiptdate").Vals
	ok := li.MustColumn("l_orderkey").Vals
	for i := 0; i < n; i++ {
		if ship[i] < 0 || ship[i] > DateMax+60 {
			t.Fatalf("shipdate %d out of range", ship[i])
		}
		if receipt[i] <= ship[i] {
			t.Fatalf("receiptdate %d <= shipdate %d", receipt[i], ship[i])
		}
	}
	// Lineitem emitted in orderkey order (data presorted on Order keys).
	for i := 1; i < n; i++ {
		if ok[i] < ok[i-1] {
			t.Fatal("lineitem not ordered by orderkey")
		}
	}
	// Orders totalprice equals the sum of its lineitem prices.
	var sum Value
	totals := d.Orders.MustColumn("o_totalprice").Vals
	cur := Value(0)
	lep := li.MustColumn("l_extendedprice").Vals
	var acc Value
	for i := 0; i < n; i++ {
		if ok[i] != cur {
			if totals[cur] != acc {
				t.Fatalf("order %d totalprice %d != %d", cur, totals[cur], acc)
			}
			cur = ok[i]
			acc = 0
		}
		acc += lep[i]
		sum += lep[i]
	}
}

// TestAllQueriesAgreeAcrossEngines is the TPC-H integration check: every
// query must produce the same checksum on all six designs — the four served
// kinds and both baselines — run twice (the second run exercises
// cracked/aligned state).
func TestAllQueriesAgreeAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := smallData(t)
	rng := rand.New(rand.NewSource(99))
	params := []Params{RandomParams(rng), RandomParams(rng)}

	designs := []struct {
		name  string
		build func(*store.Relation) engine.Engine
	}{
		{"scan", served(engine.Scan)}, {"selcrack", served(engine.SelCrack)},
		{"presorted", newPresorted}, {"sideways", served(engine.Sideways)},
		{"partial", served(engine.PartialSideways)}, {"rowstore", newRowStore},
	}
	dbs := make([]*DB, len(designs))
	for i, ds := range designs {
		dbs[i] = NewDB(d, ds.build)
	}
	for _, qid := range QueryIDs {
		fn := Queries[qid]
		for pi, p := range params {
			var ref Value
			for i, db := range dbs {
				got := fn(db, p)
				if i == 0 {
					ref = got
					continue
				}
				if got != ref {
					t.Fatalf("Q%d params %d: %s checksum %d != scan %d", qid, pi, designs[i].name, got, ref)
				}
			}
		}
	}
}

func TestSelectionAttrsCoverAllQueries(t *testing.T) {
	for _, q := range QueryIDs {
		if len(SelectionAttrs[q]) == 0 {
			t.Errorf("Q%d has no selection attrs", q)
		}
		if Queries[q] == nil {
			t.Errorf("Q%d has no implementation", q)
		}
	}
}

func TestPrepareBuildsCopies(t *testing.T) {
	d := Generate(0.001, 5)
	db := NewDB(d, newPresorted)
	cost := db.Prepare(1)
	if cost <= 0 {
		t.Fatal("Prepare should take measurable time")
	}
	// Prepared query must be cheap and correct versus scan.
	p := RandomParams(rand.New(rand.NewSource(1)))
	scan := NewDB(d, served(engine.Scan))
	if Q1(db, p) != Q1(scan, p) {
		t.Fatal("prepared presorted Q1 differs from scan")
	}
}

func TestRandomParamsInRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := RandomParams(rng)
		if p.Date < Date1993 || p.Date >= Date1997 {
			t.Fatalf("date %d out of range", p.Date)
		}
		if p.Brand == p.Brand2 || p.Brand2 == p.Brand3 || p.Brand == p.Brand3 {
			t.Fatal("brands must be distinct")
		}
		if p.Nation1 == p.Nation2 {
			t.Fatal("nations must be distinct")
		}
		if p.Mode1 == p.Mode2 {
			t.Fatal("modes must be distinct")
		}
	}
}

func BenchmarkQ1Sideways(b *testing.B) {
	d := Generate(0.002, 42)
	db := NewDB(d, served(engine.Sideways))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Q1(db, RandomParams(rng))
	}
}

func BenchmarkQ6AllEngines(b *testing.B) {
	d := Generate(0.002, 42)
	for _, k := range []engine.Kind{engine.Scan, engine.SelCrack, engine.Sideways, engine.PartialSideways} {
		b.Run(k.String(), func(b *testing.B) {
			db := NewDB(d, served(k))
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Q6(db, RandomParams(rng))
			}
		})
	}
}
