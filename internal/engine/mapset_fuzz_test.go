package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"crackstore/internal/store"
)

// The map-set engines — full and partial maps, unbudgeted and budgeted —
// against Scan as the oracle, driven by one byte-coded op stream.

var fuzzAttrs = []string{"A", "B", "C", "D"}

const (
	fuzzRows   = 200
	fuzzDomain = 64
)

// Op stream format. Every op starts with a header byte h; h%8 selects the
// kind (0 insert, 1 delete, 2 join side, anything else a query) and bit 3
// makes a query disjunctive. The seed builders below are its documentation.
const (
	opInsert = 0
	opDelete = 1
	opJoin   = 2
	opQuery  = 3
	opDisj   = 8
)

// Predicate shapes (shape byte % 4).
const (
	shapeRange    = 0 // [lo, hi)
	shapeOpen     = 1 // (lo, hi)
	shapePoint    = 2 // = lo
	shapeInverted = 3 // lower bound above upper bound: matches nothing
)

// attr indexes fuzzAttrs.
const (
	aA = iota
	aB
	aC
	aD
)

func encPred(attr, shape, lo, hi byte) []byte { return []byte{attr, shape, lo, hi} }

func encPreds(preds ...[]byte) []byte {
	out := []byte{byte(len(preds) - 1)}
	for _, p := range preds {
		out = append(out, p...)
	}
	return out
}

func encProjs(attrs ...byte) []byte { return append([]byte{byte(len(attrs))}, attrs...) }

func encQuery(header byte, preds, projs []byte) []byte {
	return append(append([]byte{header}, preds...), projs...)
}

func encJoin(preds []byte, joinAttr byte, projs []byte) []byte {
	return append(append(append([]byte{opJoin}, preds...), joinAttr), projs...)
}

func cat(ops ...[]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// opReader decodes the stream; past its end every byte reads as zero.
type opReader struct {
	buf []byte
	pos int
}

func (r *opReader) more() bool { return r.pos < len(r.buf) }

func (r *opReader) next() byte {
	if r.pos >= len(r.buf) {
		return 0
	}
	r.pos++
	return r.buf[r.pos-1]
}

func (r *opReader) pred() AttrPred {
	attr := fuzzAttrs[r.next()%4]
	shape := r.next() % 4
	lo, hi := Value(r.next()%fuzzDomain), Value(r.next()%fuzzDomain)
	if lo > hi {
		lo, hi = hi, lo
	}
	switch shape {
	case shapeRange:
		return AttrPred{Attr: attr, Pred: store.Range(lo, hi)}
	case shapeOpen:
		return AttrPred{Attr: attr, Pred: store.Open(lo, hi)}
	case shapePoint:
		return AttrPred{Attr: attr, Pred: store.Point(lo)}
	}
	return AttrPred{Attr: attr, Pred: store.Pred{Lo: hi + 1, Hi: lo, LoIncl: true, HiIncl: true}}
}

func (r *opReader) preds() []AttrPred {
	out := make([]AttrPred, 1+r.next()%3)
	for i := range out {
		out[i] = r.pred()
	}
	return out
}

func (r *opReader) projs() []string {
	out := make([]string, r.next()%4)
	for i := range out {
		out[i] = fuzzAttrs[r.next()%4]
	}
	return out
}

// checkRows requires got to be exactly the oracle's rows.
func checkRows(t *testing.T, tag string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, scan returned %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %s, scan has %s", tag, i, got[i], want[i])
		}
	}
}

// checkResult requires res to hold exactly the oracle's rows, every
// projected column res.N long, and no column it does not project.
func checkResult(t *testing.T, tag string, res Result, projs []string, want []string) {
	t.Helper()
	projected := make(map[string]bool, len(projs))
	for _, attr := range projs {
		if len(res.Cols[attr]) != res.N {
			t.Fatalf("%s: column %s holds %d values for N = %d", tag, attr, len(res.Cols[attr]), res.N)
		}
		projected[attr] = true
	}
	if len(res.Cols) != len(projected) {
		t.Fatalf("%s: %d columns for the %d projected", tag, len(res.Cols), len(projected))
	}
	checkRows(t, tag, canonRows(res, projs), want)
}

// joinRows canonicalizes one side of a join: per qualifying tuple its join
// value and the fetched projections.
func joinRows(ji joinInput, projs []string) []string {
	rows := make([]string, len(ji.vals))
	for i, jv := range ji.vals {
		row := []Value{jv}
		for _, attr := range projs {
			row = append(row, ji.fetch(attr, i))
		}
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return rows
}

func mapEngines(rel *store.Relation) []Engine {
	return []Engine{
		New(Sideways, cloneRel(rel)),
		New(PartialSideways, cloneRel(rel)),
		NewWith(Sideways, cloneRel(rel), Options{Budget: 3 * fuzzRows}),
		NewPartialWithBudget(cloneRel(rel), 2*fuzzRows),
		// Room for one full map: a query on another set evicts every map
		// of this one, which un-fetches it and pushes its tape's updates
		// back to pending.
		NewWith(Sideways, cloneRel(rel), Options{Budget: fuzzRows}),
	}
}

// runMapOps replays ops on the map-set engines and on Scan. Every
// query is answered three times per engine — QueryRO before, Query, QueryRO
// after — and every answer QueryRO gives must be the one Query gives. The
// second QueryRO, which follows the write path and so is rarely refused,
// writes into one Result each engine is lent for the whole stream. It holds
// the previous answer: a column filled less than whole, or one the query
// does not project, gives a wrong answer.
func runMapOps(t *testing.T, seed int64, ops []byte) {
	rel := buildRel(rand.New(rand.NewSource(seed)), fuzzRows, fuzzAttrs, fuzzDomain)
	oracle := NewScan(cloneRel(rel))
	engines := mapEngines(rel)
	lent := make([]Result, len(engines))
	rows := fuzzRows
	r := &opReader{buf: ops}
	for step := 0; r.more() && step < 400; step++ {
		h := r.next()
		switch h % 8 {
		case opInsert:
			vals := []Value{Value(r.next() % fuzzDomain), Value(r.next() % fuzzDomain), Value(r.next() % fuzzDomain), Value(r.next() % fuzzDomain)}
			oracle.Insert(vals...)
			for _, e := range engines {
				if key := e.Insert(vals...); key != rows {
					t.Fatalf("step %d: %v inserted key %d, want %d", step, e.Kind(), key, rows)
				}
			}
			rows++
		case opDelete:
			key := (int(r.next())<<8 | int(r.next())) % rows
			oracle.Delete(key)
			for _, e := range engines {
				e.Delete(key)
			}
		case opJoin:
			side := JoinSide{E: oracle, Preds: r.preds(), JoinAttr: fuzzAttrs[r.next()%4], Projs: r.projs()}
			want := joinRows(joinSide(side), side.Projs)
			for i, e := range engines {
				side.E = e
				tag := fmt.Sprintf("step %d engine %d (%v) join side %v on %s, %v", step, i, e.Kind(), side.Preds, side.JoinAttr, side.Projs)
				checkRows(t, tag, joinRows(joinSide(side), side.Projs), want)
			}
		default:
			q := Query{Disjunctive: h&opDisj != 0, Preds: r.preds(), Projs: r.projs()}
			res, _ := oracle.Query(q)
			want := canonRows(res, q.Projs)
			for i, e := range engines {
				tag := fmt.Sprintf("step %d engine %d (%v) %+v", step, i, e.Kind(), q)
				if res, _, ok := e.QueryRO(q); ok {
					checkResult(t, tag+" QueryRO before", res, q.Projs, want)
				}
				res, _ := e.Query(q)
				checkResult(t, tag+" Query", res, q.Projs, want)
				lentQ := q
				lentQ.Into = &lent[i]
				if res, _, ok := e.QueryRO(lentQ); ok {
					checkResult(t, tag+" QueryRO after", res, q.Projs, want)
				}
			}
		}
	}
}

// randomOps is a seeded op stream: about one update per five queries.
func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, n)
	rng.Read(ops)
	return ops
}

func FuzzMapEnginesAgree(f *testing.F) {
	wide := encPreds(encPred(aA, shapeRange, 10, 50))
	narrow := encPreds(encPred(aA, shapeRange, 20, 30))
	// A repeated projection, over several areas of a partial map and then
	// read-only, conjunctive and disjunctive.
	f.Add(int64(1), cat(
		encQuery(opQuery, narrow, encProjs(aB)),
		encQuery(opQuery, wide, encProjs(aB, aB)),
		encQuery(opQuery, wide, encProjs(aB, aB)),
		encQuery(opQuery|opDisj, encPreds(encPred(aA, shapeRange, 10, 50), encPred(aC, shapePoint, 7, 0)), encProjs(aB, aC, aB)),
	))
	// The join attribute is also a projection: joinSide appends it again.
	f.Add(int64(2), cat(
		encQuery(opQuery, narrow, encProjs(aB)),
		encJoin(wide, aB, encProjs(aB)),
		encJoin(encPreds(encPred(aA, shapeOpen, 5, 60), encPred(aC, shapeRange, 0, 40)), aD, encProjs(aB, aD)),
	))
	// The same attribute twice, the head attribute projected, an inverted
	// range, and updates in between.
	f.Add(int64(3), cat(
		encQuery(opQuery, encPreds(encPred(aA, shapeRange, 5, 40), encPred(aA, shapeOpen, 20, 60)), encProjs(aA, aC)),
		[]byte{opInsert, 25, 1, 2, 3},
		[]byte{opDelete, 0, 17},
		encQuery(opQuery|opDisj, encPreds(encPred(aB, shapeInverted, 9, 30), encPred(aA, shapePoint, 25, 0)), encProjs(aA)),
		encQuery(opQuery, encPreds(encPred(aA, shapeInverted, 3, 8)), encProjs(aD, aD)),
		encQuery(opQuery, encPreds(encPred(aA, shapeRange, 0, 63), encPred(aB, shapeRange, 0, 63), encPred(aC, shapeOpen, 1, 50)), encProjs(aD)),
	))
	// Nothing projected: a count, from one predicate, cold and read-only,
	// then from two and from a disjunction.
	f.Add(int64(4), cat(
		encQuery(opQuery, wide, encProjs()),
		encQuery(opQuery, wide, encProjs()),
		encQuery(opQuery, encPreds(encPred(aB, shapeOpen, 3, 40), encPred(aC, shapeRange, 10, 60)), encProjs()),
		encQuery(opQuery|opDisj, encPreds(encPred(aA, shapePoint, 9, 0), encPred(aD, shapeRange, 0, 20)), encProjs()),
	))
	// Deletes of twins: keys 200 and 201 are equal on A..D, key 202 on A..C.
	// A query aligning B, C or both cannot tell the twin of a deleted tuple
	// from it and merges through the key map, on the conjunctive path, on a
	// join side and with both twins deleted in one merge; a disjunction
	// merges every pending update at once; a delete of a tuple nothing
	// equals is found by value.
	twin := []byte{opInsert, 25, 1, 2, 3}
	point := encPreds(encPred(aA, shapePoint, 25, 25))
	f.Add(int64(5), cat(
		encQuery(opQuery, narrow, encProjs(aB)),
		twin, twin, []byte{opInsert, 25, 1, 2, 9},
		encQuery(opQuery, point, encProjs(aB)),
		[]byte{opDelete, 0, 200},
		encQuery(opQuery, point, encProjs(aB)),
		encQuery(opQuery, point, encProjs(aC, aD)),
		[]byte{opDelete, 0, 17},
		encQuery(opQuery, encPreds(encPred(aA, shapeRange, 0, 63)), encProjs(aB, aC)),
		twin, twin,
		encQuery(opQuery, point, encProjs(aD)),
		[]byte{opDelete, 0, 203}, []byte{opDelete, 0, 204},
		encJoin(point, aC, encProjs(aB)),
		[]byte{opDelete, 0, 201},
		encQuery(opQuery|opDisj, encPreds(encPred(aA, shapePoint, 25, 25), encPred(aC, shapePoint, 2, 2)), encProjs(aB, aD)),
		encQuery(opQuery, point, encProjs(aB, aC, aD)),
	))
	for seed := int64(4); seed < 10; seed++ {
		f.Add(seed, randomOps(seed, 1500))
	}
	// Whole-area eviction under the one-map budget: S_A merges an insert
	// and deletes, then queries on S_B and S_C evict all of S_A's maps, so
	// S_A forgets its tape and takes the insert and the deletes back as
	// pending; the next S_A query rebuilds its maps from the base prefix
	// and merges them again, by value, conjunctively, on a join side and
	// in a disjunction.
	onA := encPreds(encPred(aA, shapeRange, 20, 40))
	f.Add(int64(6), cat(
		encQuery(opQuery, onA, encProjs(aB)),
		[]byte{opInsert, 30, 5, 6, 7},
		[]byte{opDelete, 0, 11}, []byte{opDelete, 0, 12},
		encQuery(opQuery, onA, encProjs(aB, aC)),
		[]byte{opDelete, 0, 200},
		encQuery(opQuery, onA, encProjs(aD)),
		encQuery(opQuery, encPreds(encPred(aB, shapeOpen, 3, 50)), encProjs(aC)),
		encQuery(opQuery, encPreds(encPred(aC, shapeRange, 10, 30)), encProjs(aA, aD)),
		encQuery(opQuery, onA, encProjs(aB)),
		[]byte{opDelete, 0, 13}, []byte{opInsert, 33, 1, 1, 1},
		encQuery(opQuery, encPreds(encPred(aB, shapeRange, 0, 63)), encProjs(aA)),
		encJoin(onA, aC, encProjs(aD)),
		encQuery(opQuery, encPreds(encPred(aD, shapePoint, 9, 0)), encProjs(aB)),
		encQuery(opQuery|opDisj, encPreds(encPred(aA, shapePoint, 33, 0), encPred(aC, shapeRange, 0, 5)), encProjs(aB, aD)),
		encQuery(opQuery, onA, encProjs(aB, aC, aD)),
	))
	// The same on twins, so the rebuilt maps merge their deletes through
	// the key map after the area was un-fetched.
	f.Add(int64(7), cat(
		twin, twin,
		encQuery(opQuery, point, encProjs(aB)),
		[]byte{opDelete, 0, 200},
		encQuery(opQuery, point, encProjs(aB)),
		encQuery(opQuery, encPreds(encPred(aC, shapeRange, 0, 63)), encProjs(aD)),
		[]byte{opDelete, 0, 201}, twin,
		encQuery(opQuery, point, encProjs(aC, aD)),
		encQuery(opQuery, encPreds(encPred(aB, shapeRange, 0, 63)), encProjs(aC)),
		encQuery(opQuery, point, encProjs(aB)),
	))
	f.Fuzz(runMapOps)
}
