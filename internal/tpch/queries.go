package tpch

import (
	"math/rand"
	"sort"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// DB is one physical instantiation of the TPC-H database: every table
// wrapped by an engine of the same design, each owning an independent copy
// of the data.
type DB struct {
	tables map[string]engine.Engine
	rels   map[string]*store.Relation
}

// NewDB clones the generated data and wraps each table in the engine build
// makes of it: engine.New of a served kind, or a baseline's constructor
// (presort.NewEngine, rowstore.NewEngine).
func NewDB(d *Data, build func(*store.Relation) engine.Engine) *DB {
	db := &DB{tables: map[string]engine.Engine{}, rels: map[string]*store.Relation{}}
	for _, rel := range []*store.Relation{
		d.Region, d.Nation, d.Supplier, d.Customer, d.Part, d.PartSupp, d.Orders, d.Lineitem,
	} {
		c := CloneRelation(rel)
		db.rels[rel.Name] = c
		db.tables[rel.Name] = build(c)
	}
	return db
}

// Table returns the engine for a table.
func (db *DB) Table(name string) engine.Engine { return db.tables[name] }

// Rel returns the engine-owned relation for a table (used by the plain
// operators — joins, group-bys — that cracking does not affect).
func (db *DB) Rel(name string) *store.Relation { return db.rels[name] }

// QueryIDs lists the TPC-H queries the paper evaluates.
var QueryIDs = []int{1, 3, 4, 6, 7, 8, 10, 12, 14, 15, 19, 20}

// SelectionAttrs maps each query to the (table, attribute) pairs its
// cracked selections use; Prepare presorts these for the presorted baselines.
var SelectionAttrs = map[int][][2]string{
	1:  {{"lineitem", "l_shipdate"}},
	3:  {{"customer", "c_mktsegment"}, {"orders", "o_orderdate"}, {"lineitem", "l_shipdate"}},
	4:  {{"orders", "o_orderdate"}},
	6:  {{"lineitem", "l_shipdate"}},
	7:  {{"lineitem", "l_shipdate"}},
	8:  {{"orders", "o_orderdate"}, {"part", "p_type"}},
	10: {{"orders", "o_orderdate"}, {"lineitem", "l_returnflag"}},
	12: {{"lineitem", "l_receiptdate"}},
	14: {{"lineitem", "l_shipdate"}},
	15: {{"lineitem", "l_shipdate"}},
	19: {{"lineitem", "l_quantity"}, {"part", "p_brand"}},
	20: {{"part", "p_brand"}, {"lineitem", "l_shipdate"}},
}

// Prepare runs the offline step of a presorted baseline on the copies a
// query needs (SelectionAttrs) and returns its cost; designs without one
// cost 0.
func (db *DB) Prepare(q int) time.Duration {
	var total time.Duration
	for _, ta := range SelectionAttrs[q] {
		if p, ok := db.tables[ta[0]].(interface{ Prepare(...string) time.Duration }); ok {
			total += p.Prepare(ta[1])
		}
	}
	return total
}

// Params carries the per-run parameter variation (the paper runs 30 random
// variations per query).
type Params struct {
	Date                  Value
	Seg                   Value
	Disc, Qty             Value
	Mode1, Mode2          Value
	Brand, Brand2, Brand3 Value
	Nation1, Nation2      Value
	Region                Value
	PType                 Value
}

// RandomParams draws a parameter variation.
func RandomParams(rng *rand.Rand) Params {
	b := rng.Perm(NumBrands)
	n := rng.Perm(NumNations)
	m := rng.Perm(NumShipModes)
	return Params{
		Date:    Value(Date1993 + rng.Intn(Date1997-Date1993)),
		Seg:     Value(rng.Intn(NumSegments)),
		Disc:    Value(2 + rng.Intn(8)),
		Qty:     Value(20 + rng.Intn(20)),
		Mode1:   Value(m[0]),
		Mode2:   Value(m[1]),
		Brand:   Value(b[0]),
		Brand2:  Value(b[1]),
		Brand3:  Value(b[2]),
		Nation1: Value(n[0]),
		Nation2: Value(n[1]),
		Region:  Value(rng.Intn(NumRegions)),
		PType:   Value(rng.Intn(NumTypes)),
	}
}

// QueryFunc runs one TPC-H query variation and returns a result checksum
// used to verify that all engine kinds compute identical answers.
type QueryFunc func(db *DB, p Params) Value

// Queries maps query ids to implementations.
var Queries = map[int]QueryFunc{
	1: Q1, 3: Q3, 4: Q4, 6: Q6, 7: Q7, 8: Q8,
	10: Q10, 12: Q12, 14: Q14, 15: Q15, 19: Q19, 20: Q20,
}

func pred(attr string, p store.Pred) engine.AttrPred {
	return engine.AttrPred{Attr: attr, Pred: p}
}

func eq(attr string, v Value) engine.AttrPred {
	return engine.AttrPred{Attr: attr, Pred: store.Point(v)}
}

// Q1: pricing summary report. One selection (l_shipdate), six tuple
// reconstructions, group-by on two attributes — the paper's flagship
// multi-reconstruction query.
func Q1(db *DB, p Params) Value {
	res, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{pred("l_shipdate", store.Range(0, p.Date))},
		Projs: []string{"l_returnflag", "l_linestatus", "l_quantity",
			"l_extendedprice", "l_discount", "l_tax"},
	})
	type agg struct{ qty, price, disc, charge, count Value }
	groups := map[[2]Value]*agg{}
	for i := 0; i < res.N; i++ {
		k := [2]Value{res.Cols["l_returnflag"][i], res.Cols["l_linestatus"][i]}
		a := groups[k]
		if a == nil {
			a = &agg{}
			groups[k] = a
		}
		price := res.Cols["l_extendedprice"][i]
		disc := res.Cols["l_discount"][i]
		tax := res.Cols["l_tax"][i]
		a.qty += res.Cols["l_quantity"][i]
		a.price += price
		a.disc += price * (100 - disc) / 100
		a.charge += price * (100 - disc) * (100 + tax) / 10000
		a.count++
	}
	var keys [][2]Value
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	var sum Value
	for _, k := range keys {
		a := groups[k]
		sum = sum*31 + a.qty + a.price + a.disc + a.charge + a.count
	}
	return sum
}

// Q3: shipping priority. Three cracked selections on three tables, joined
// customer -> orders -> lineitem.
func Q3(db *DB, p Params) Value {
	cust, _ := db.Table("customer").Query(engine.Query{
		Preds: []engine.AttrPred{eq("c_mktsegment", p.Seg)},
		Projs: []string{"c_custkey"},
	})
	custSet := make(map[Value]bool, cust.N)
	for _, k := range cust.Cols["c_custkey"] {
		custSet[k] = true
	}
	ord, _ := db.Table("orders").Query(engine.Query{
		Preds: []engine.AttrPred{pred("o_orderdate", store.Range(0, p.Date))},
		Projs: []string{"o_orderkey", "o_custkey"},
	})
	ordSet := make(map[Value]bool, ord.N)
	for i := 0; i < ord.N; i++ {
		if custSet[ord.Cols["o_custkey"][i]] {
			ordSet[ord.Cols["o_orderkey"][i]] = true
		}
	}
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{pred("l_shipdate", store.Range(p.Date+1, DateMax+1))},
		Projs: []string{"l_orderkey", "l_extendedprice", "l_discount"},
	})
	revenue := map[Value]Value{}
	for i := 0; i < li.N; i++ {
		ok := li.Cols["l_orderkey"][i]
		if ordSet[ok] {
			revenue[ok] += li.Cols["l_extendedprice"][i] * (100 - li.Cols["l_discount"][i]) / 100
		}
	}
	return sumTopValues(revenue, 10)
}

// Q4: order priority checking. Cracked selection on o_orderdate; the
// exists-subquery on lineitem (commitdate < receiptdate) is a plain scan,
// identical across engines.
func Q4(db *DB, p Params) Value {
	late := map[Value]bool{}
	li := db.Rel("lineitem")
	ck := li.MustColumn("l_commitdate").Vals
	rk := li.MustColumn("l_receiptdate").Vals
	ok := li.MustColumn("l_orderkey").Vals
	for i := range ok {
		if ck[i] < rk[i] {
			late[ok[i]] = true
		}
	}
	ord, _ := db.Table("orders").Query(engine.Query{
		Preds: []engine.AttrPred{pred("o_orderdate", store.Range(p.Date, p.Date+Quarter))},
		Projs: []string{"o_orderkey", "o_orderpriority"},
	})
	counts := make([]Value, NumPriorities)
	for i := 0; i < ord.N; i++ {
		if late[ord.Cols["o_orderkey"][i]] {
			counts[ord.Cols["o_orderpriority"][i]]++
		}
	}
	var sum Value
	for _, c := range counts {
		sum = sum*31 + c
	}
	return sum
}

// Q6: forecasting revenue change — a pure multi-selection query on
// lineitem, the best case for bit-vector sideways plans.
func Q6(db *DB, p Params) Value {
	res, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{
			pred("l_shipdate", store.Range(p.Date, p.Date+Year)),
			pred("l_discount", store.Pred{Lo: p.Disc - 1, Hi: p.Disc + 1, LoIncl: true, HiIncl: true}),
			pred("l_quantity", store.Range(0, p.Qty)),
		},
		Projs: []string{"l_extendedprice", "l_discount"},
	})
	var rev Value
	for i := 0; i < res.N; i++ {
		rev += res.Cols["l_extendedprice"][i] * res.Cols["l_discount"][i] / 100
	}
	return rev
}

// Q7: volume shipping between two nations, grouped by year.
func Q7(db *DB, p Params) Value {
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{pred("l_shipdate", store.Range(Date1995, Date1997))},
		Projs: []string{"l_suppkey", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"},
	})
	suppNation := db.Rel("supplier").MustColumn("s_nationkey").Vals
	custOf := db.Rel("orders").MustColumn("o_custkey").Vals
	custNation := db.Rel("customer").MustColumn("c_nationkey").Vals
	rev := map[[3]Value]Value{} // (suppNation, custNation, year)
	for i := 0; i < li.N; i++ {
		sn := suppNation[li.Cols["l_suppkey"][i]]
		cn := custNation[custOf[li.Cols["l_orderkey"][i]]]
		if !((sn == p.Nation1 && cn == p.Nation2) || (sn == p.Nation2 && cn == p.Nation1)) {
			continue
		}
		year := li.Cols["l_shipdate"][i] / Year
		rev[[3]Value{sn, cn, year}] += li.Cols["l_extendedprice"][i] * (100 - li.Cols["l_discount"][i]) / 100
	}
	return sortedMapChecksum3(rev)
}

// Q8: national market share. Cracked selections on o_orderdate and p_type.
func Q8(db *DB, p Params) Value {
	part, _ := db.Table("part").Query(engine.Query{
		Preds: []engine.AttrPred{eq("p_type", p.PType)},
		Projs: []string{"p_partkey"},
	})
	partSet := make(map[Value]bool, part.N)
	for _, k := range part.Cols["p_partkey"] {
		partSet[k] = true
	}
	ord, _ := db.Table("orders").Query(engine.Query{
		Preds: []engine.AttrPred{pred("o_orderdate", store.Range(Date1995, Date1997))},
		Projs: []string{"o_orderkey", "o_orderdate"},
	})
	ordDate := make(map[Value]Value, ord.N)
	for i := 0; i < ord.N; i++ {
		ordDate[ord.Cols["o_orderkey"][i]] = ord.Cols["o_orderdate"][i]
	}
	li := db.Rel("lineitem")
	lok := li.MustColumn("l_orderkey").Vals
	lpk := li.MustColumn("l_partkey").Vals
	lsk := li.MustColumn("l_suppkey").Vals
	lep := li.MustColumn("l_extendedprice").Vals
	ldc := li.MustColumn("l_discount").Vals
	suppNation := db.Rel("supplier").MustColumn("s_nationkey").Vals
	nationRegion := db.Rel("nation").MustColumn("n_regionkey").Vals
	var total, national [8]Value // per year bucket
	for i := range lok {
		od, ok := ordDate[lok[i]]
		if !ok || !partSet[lpk[i]] {
			continue
		}
		sn := suppNation[lsk[i]]
		if nationRegion[sn] != p.Region {
			continue
		}
		vol := lep[i] * (100 - ldc[i]) / 100
		y := od / Year
		total[y%8] += vol
		if sn == p.Nation1 {
			national[y%8] += vol
		}
	}
	var sum Value
	for i := range total {
		share := Value(0)
		if total[i] > 0 {
			share = national[i] * 10000 / total[i]
		}
		sum = sum*31 + share
	}
	return sum
}

// Q10: returned item reporting. Cracked selections on o_orderdate and
// l_returnflag.
func Q10(db *DB, p Params) Value {
	ord, _ := db.Table("orders").Query(engine.Query{
		Preds: []engine.AttrPred{pred("o_orderdate", store.Range(p.Date, p.Date+Quarter))},
		Projs: []string{"o_orderkey", "o_custkey"},
	})
	custOf := make(map[Value]Value, ord.N)
	for i := 0; i < ord.N; i++ {
		custOf[ord.Cols["o_orderkey"][i]] = ord.Cols["o_custkey"][i]
	}
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{eq("l_returnflag", ReturnFlagR)},
		Projs: []string{"l_orderkey", "l_extendedprice", "l_discount"},
	})
	revenue := map[Value]Value{}
	for i := 0; i < li.N; i++ {
		if ck, ok := custOf[li.Cols["l_orderkey"][i]]; ok {
			revenue[ck] += li.Cols["l_extendedprice"][i] * (100 - li.Cols["l_discount"][i]) / 100
		}
	}
	return sumTopValues(revenue, 20)
}

// Q12: shipping modes and order priority. Cracked selection on
// l_receiptdate; mode and date-ordering filters applied on the aligned
// reconstruction.
func Q12(db *DB, p Params) Value {
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{pred("l_receiptdate", store.Range(p.Date, p.Date+Year))},
		Projs: []string{"l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate", "l_receiptdate"},
	})
	prio := db.Rel("orders").MustColumn("o_orderpriority").Vals
	var high, low Value
	for i := 0; i < li.N; i++ {
		mode := li.Cols["l_shipmode"][i]
		if mode != p.Mode1 && mode != p.Mode2 {
			continue
		}
		if !(li.Cols["l_commitdate"][i] < li.Cols["l_receiptdate"][i] &&
			li.Cols["l_shipdate"][i] < li.Cols["l_commitdate"][i]) {
			continue
		}
		if prio[li.Cols["l_orderkey"][i]] < 2 {
			high++
		} else {
			low++
		}
	}
	return high*31 + low
}

// Q14: promotion effect. Cracked selection on l_shipdate; part type lookup
// via positional join.
func Q14(db *DB, p Params) Value {
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{pred("l_shipdate", store.Range(p.Date, p.Date+Month))},
		Projs: []string{"l_partkey", "l_extendedprice", "l_discount"},
	})
	ptype := db.Rel("part").MustColumn("p_type").Vals
	var promo, total Value
	for i := 0; i < li.N; i++ {
		v := li.Cols["l_extendedprice"][i] * (100 - li.Cols["l_discount"][i]) / 100
		total += v
		if ptype[li.Cols["l_partkey"][i]]/10 == 0 { // promo category
			promo += v
		}
	}
	if total == 0 {
		return 0
	}
	return promo * 10000 / total
}

// Q15: top supplier. Cracked selection on l_shipdate; group-by suppkey.
func Q15(db *DB, p Params) Value {
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{pred("l_shipdate", store.Range(p.Date, p.Date+Quarter))},
		Projs: []string{"l_suppkey", "l_extendedprice", "l_discount"},
	})
	revenue := map[Value]Value{}
	for i := 0; i < li.N; i++ {
		revenue[li.Cols["l_suppkey"][i]] += li.Cols["l_extendedprice"][i] * (100 - li.Cols["l_discount"][i]) / 100
	}
	var best Value
	for _, v := range revenue {
		if v > best {
			best = v
		}
	}
	return best
}

// Q19: discounted revenue — the complex disjunctive where clause the paper
// highlights: three brand/container/quantity/size clause groups, requiring
// many tuple reconstructions in a column-store.
func Q19(db *DB, p Params) Value {
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{
			pred("l_quantity", store.Pred{Lo: 1, Hi: 11, LoIncl: true, HiIncl: true}),
			pred("l_quantity", store.Pred{Lo: 10, Hi: 20, LoIncl: true, HiIncl: true}),
			pred("l_quantity", store.Pred{Lo: 20, Hi: 30, LoIncl: true, HiIncl: true}),
		},
		Projs:       []string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount"},
		Disjunctive: true,
	})
	part := db.Rel("part")
	brand := part.MustColumn("p_brand").Vals
	container := part.MustColumn("p_container").Vals
	size := part.MustColumn("p_size").Vals
	var rev Value
	for i := 0; i < li.N; i++ {
		pk := li.Cols["l_partkey"][i]
		qty := li.Cols["l_quantity"][i]
		b, c, s := brand[pk], container[pk], size[pk]
		match := (b == p.Brand && c < 10 && qty >= 1 && qty <= 11 && s >= 1 && s <= 5) ||
			(b == p.Brand2 && c >= 10 && c < 20 && qty >= 10 && qty <= 20 && s >= 1 && s <= 10) ||
			(b == p.Brand3 && c >= 20 && c < 30 && qty >= 20 && qty <= 30 && s >= 1 && s <= 15)
		if match {
			rev += li.Cols["l_extendedprice"][i] * (100 - li.Cols["l_discount"][i]) / 100
		}
	}
	return rev
}

// Q20: potential part promotion. Cracked selections on p_brand and
// l_shipdate; the availqty correlation uses partsupp directly.
func Q20(db *DB, p Params) Value {
	part, _ := db.Table("part").Query(engine.Query{
		Preds: []engine.AttrPred{eq("p_brand", p.Brand)},
		Projs: []string{"p_partkey"},
	})
	partSet := make(map[Value]bool, part.N)
	for _, k := range part.Cols["p_partkey"] {
		partSet[k] = true
	}
	li, _ := db.Table("lineitem").Query(engine.Query{
		Preds: []engine.AttrPred{pred("l_shipdate", store.Range(p.Date, p.Date+Year))},
		Projs: []string{"l_partkey", "l_suppkey", "l_quantity"},
	})
	shipped := map[[2]Value]Value{}
	for i := 0; i < li.N; i++ {
		pk := li.Cols["l_partkey"][i]
		if partSet[pk] {
			shipped[[2]Value{pk, li.Cols["l_suppkey"][i]}] += li.Cols["l_quantity"][i]
		}
	}
	ps := db.Rel("partsupp")
	pspk := ps.MustColumn("ps_partkey").Vals
	pssk := ps.MustColumn("ps_suppkey").Vals
	psaq := ps.MustColumn("ps_availqty").Vals
	supps := map[Value]bool{}
	for i := range pspk {
		if q, ok := shipped[[2]Value{pspk[i], pssk[i]}]; ok && psaq[i]*2 > q {
			supps[pssk[i]] = true
		}
	}
	var sum Value
	for s := range supps {
		sum += s
	}
	return sum
}

// sumTopValues returns a checksum of the k largest values in m
// (deterministic under map iteration).
func sumTopValues(m map[Value]Value, k int) Value {
	vals := make([]Value, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	if len(vals) > k {
		vals = vals[:k]
	}
	var sum Value
	for _, v := range vals {
		sum = sum*31 + v
	}
	return sum
}

func sortedMapChecksum3(m map[[3]Value]Value) Value {
	keys := make([][3]Value, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	var sum Value
	for _, k := range keys {
		sum = sum*31 + m[k]
	}
	return sum
}
