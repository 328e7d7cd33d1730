// Package simtest holds the one answer oracle of the store: a Scan engine
// over the same rows, asked every op of one seeded, byte-coded op stream
// beside every cell of one stack matrix. The package has test files only.
//
// The cells: each served kind (scan, selcrack, sideways, partial) bare,
// behind Concurrent, behind Snapshot, durable on a WAL, on 4 range shards,
// on 4 shards with snapshots, behind a serve.Server, remote over loopback
// TCP, and remote over 4 shards; the three budgeted map engines, the
// smallest with room for one map, bare, concurrent and remote; and a
// Stochastic and a Capped policy on each cracking kind, bare and sharded.
//
// Every answer must be Scan's as a sorted tuple multiset, and every insert
// key Scan's key. A read-only query may refuse; it may not answer wrong. A
// remote cell must answer byte for byte as its in-process twin, in the
// canonical wire encoding, and ends by pipelining queries from many
// goroutines.
package simtest

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crackstore/internal/engine"
	"crackstore/internal/store"
	"crackstore/internal/wire"
)

var attrs = []string{"A", "B", "C", "D"}

const (
	rows   = 200
	domain = 64
	maxOps = 400
)

// Op stream format. Every op starts with a header byte h; h%8 selects the
// kind (0 insert, 1 delete, 2 join side, anything else a query) and bit 3
// makes a query disjunctive. A delete's two key bytes name a live row's key
// modulo the row count, unless the first is unknownKey: then the second, b,
// names a key no tuple has, n+b/2 for an even b and -1-b/2 for an odd one.
// The seed builders below are its documentation.
const (
	opInsert   = 0
	opDelete   = 1
	opJoin     = 2
	opQuery    = 3
	opDisj     = 8
	unknownKey = 0xFF
)

// Predicate shapes (shape byte % 4).
const (
	shapeRange    = 0 // [lo, hi)
	shapeOpen     = 1 // (lo, hi)
	shapePoint    = 2 // = lo
	shapeInverted = 3 // lower bound above upper bound: matches nothing
)

// attr indexes attrs.
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

func (r *opReader) pred() engine.AttrPred {
	attr := attrs[r.next()%4]
	shape := r.next() % 4
	lo, hi := Value(r.next()%domain), Value(r.next()%domain)
	if lo > hi {
		lo, hi = hi, lo
	}
	switch shape {
	case shapeRange:
		return engine.AttrPred{Attr: attr, Pred: store.Range(lo, hi)}
	case shapeOpen:
		return engine.AttrPred{Attr: attr, Pred: store.Open(lo, hi)}
	case shapePoint:
		return engine.AttrPred{Attr: attr, Pred: store.Point(lo)}
	}
	return engine.AttrPred{Attr: attr, Pred: store.Pred{Lo: hi + 1, Hi: lo, LoIncl: true, HiIncl: true}}
}

func (r *opReader) preds() []engine.AttrPred {
	out := make([]engine.AttrPred, 1+r.next()%3)
	for i := range out {
		out[i] = r.pred()
	}
	return out
}

func (r *opReader) projs() []string {
	out := make([]string, r.next()%4)
	for i := range out {
		out[i] = attrs[r.next()%4]
	}
	return out
}

func (r *opReader) query(h byte) engine.Query {
	return engine.Query{Disjunctive: h&opDisj != 0, Preds: r.preds(), Projs: r.projs()}
}

// randomOps is a seeded op stream: about one update per five queries.
func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, n)
	rng.Read(ops)
	return ops
}

func FuzzStacksAgree(f *testing.F) {
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
	// One updated area under a budget, in partial/budget=400. An area of
	// S_A is fetched with B, C and D, and an insert falls into it: the
	// next query makes room for the span's own columns, the span clones
	// its slice of H_A and replays the insert, and B, C and D follow it.
	// The narrower queries that follow project B and C, C, or D, but the
	// span decides each of their cracks and moves all three chunks, so no
	// chunk lags: covering the area with B, with B and C, or with all
	// three replays nothing, and a last crack moves every chunk with the
	// span.
	area := encPreds(encPred(aA, shapeRange, 10, 50))
	f.Add(int64(8), cat(
		encQuery(opQuery, area, encProjs(aB, aC, aD)),
		[]byte{opInsert, 30, 4, 5, 6},
		encQuery(opQuery, area, encProjs(aB, aC, aD)),
		encQuery(opQuery, encPreds(encPred(aA, shapeRange, 20, 40)), encProjs(aB, aC)),
		encQuery(opQuery, encPreds(encPred(aA, shapeRange, 25, 35)), encProjs(aC)),
		encQuery(opQuery, encPreds(encPred(aA, shapeRange, 28, 32)), encProjs(aD)),
		encQuery(opQuery, area, encProjs(aB)),
		encQuery(opQuery, area, encProjs(aB, aC)),
		encQuery(opQuery, area, encProjs(aB, aC, aD)),
		encQuery(opQuery, area, encProjs(aB, aC, aD)),
		encQuery(opQuery, encPreds(encPred(aA, shapeRange, 30, 31)), encProjs(aB, aC)),
	))
	// Deletes of keys no tuple has are ignored by every cell: one past the
	// last row and a negative one, before any set exists and once S_A has
	// pending updates to merge; then an insert gives a tuple the key past
	// the last row, and it must be visible.
	f.Add(int64(10), cat(
		[]byte{opDelete, unknownKey, 0},
		encQuery(opQuery, narrow, encProjs(aB)),
		[]byte{opDelete, unknownKey, 2}, []byte{opDelete, unknownKey, 1},
		encQuery(opQuery, wide, encProjs(aB, aC)),
		encQuery(opQuery|opDisj, encPreds(encPred(aA, shapeRange, 10, 50), encPred(aC, shapePoint, 7, 0)), encProjs(aB)),
		twin,
		encQuery(opQuery, point, encProjs(aB, aD)),
		encJoin(point, aC, encProjs(aB)),
	))
	f.Fuzz(replay)
}

// replay runs ops on every cell and on the Scan oracle, all over the rows
// seed draws. A query is asked three times per cell — QueryRO before, Query,
// QueryRO after — and each answer QueryRO gives must be the one Query
// gives. The second QueryRO, which follows the write path and so is rarely
// refused, writes into one Result each cell is lent for the whole stream:
// it holds the previous answer, so a column filled less than whole, or one
// the query does not project, gives a wrong answer. A join side is one
// JoinMax with the cell on the left and Scan on the right, the join
// attribute among the projections.
func replay(t *testing.T, seed int64, ops []byte) {
	newRel := func() *store.Relation { return relation(seed, rows, attrs, domain) }
	oracle := engine.NewScan(newRel())
	cs := cells()
	es := make([]engine.Engine, len(cs))
	twins := make([]int, len(cs)) // a remote cell's twin, else -1
	for i, c := range cs {
		es[i] = c.stack.open(t, c.base, newRel())
		twin := c.stack.twin + "/" + c.base.name
		twins[i] = slices.IndexFunc(cs[:i], func(o cell) bool { return o.name() == twin })
	}
	lent := make([]engine.Result, len(cs))
	answers := make([][3][]byte, len(cs)) // this op's answers, wire-encoded; nil when refused
	n := rows
	r := &opReader{buf: ops}
	for op := 0; r.more() && op < maxOps; op++ {
		var ask func(i int, e engine.Engine) string // one cell's part of the op: what it got wrong
		switch h := r.next(); h % 8 {
		case opInsert:
			vals := []Value{Value(r.next() % domain), Value(r.next() % domain), Value(r.next() % domain), Value(r.next() % domain)}
			want := oracle.Insert(vals...)
			n++
			ask = func(_ int, e engine.Engine) string {
				if key := e.Insert(vals...); key != want {
					return fmt.Sprintf("insert %v got key %d, scan %d", vals, key, want)
				}
				return ""
			}
		case opDelete:
			hi, lo := int(r.next()), int(r.next())
			key := (hi<<8 | lo) % n
			if hi == unknownKey {
				key = n + lo>>1
				if lo&1 != 0 {
					key = -1 - lo>>1
				}
			}
			oracle.Delete(key)
			ask = func(_ int, e engine.Engine) string { e.Delete(key); return "" }
		case opJoin:
			side := engine.JoinSide{E: oracle, Preds: r.preds(), JoinAttr: attrs[r.next()%4], Projs: r.projs()}
			side.Projs = append(side.Projs, side.JoinAttr)
			scan := side
			want, _ := engine.JoinMax(scan, scan)
			ask = func(_ int, e engine.Engine) string {
				side.E = e
				if got, _ := engine.JoinMax(side, scan); !maps.Equal(got, want) {
					return fmt.Sprintf("join side %v on %s projecting %v: maxima %v, scan %v", side.Preds, side.JoinAttr, side.Projs, got, want)
				}
				return ""
			}
		default:
			q := r.query(h)
			res, _ := oracle.Query(q)
			want := tuples(res, q.Projs)
			ask = func(i int, e engine.Engine) string {
				lq := q
				lq.Into = &lent[i]
				asks := []func() (engine.Result, engine.Cost, bool){
					func() (engine.Result, engine.Cost, bool) { return e.QueryRO(q) },
					func() (engine.Result, engine.Cost, bool) { res, cost := e.Query(q); return res, cost, true },
					func() (engine.Result, engine.Cost, bool) { return e.QueryRO(lq) },
				}
				for j, what := range []string{"QueryRO before", "Query", "QueryRO after, into lent memory,"} {
					res, _, ok := asks[j]()
					answers[i][j] = nil
					if ok {
						if msg := sameAnswer(res, q.Projs, want); msg != "" {
							return fmt.Sprintf("%s %+v: %s", what, q, msg)
						}
						answers[i][j] = encode(res)
					}
					if tw := twins[i]; tw >= 0 && !bytes.Equal(answers[i][j], answers[tw][j]) {
						return fmt.Sprintf("%s %+v: the answer is not %s's byte for byte", what, q, cs[tw].name())
					}
				}
				return ""
			}
		}
		for i, e := range es {
			if msg := try(func() string { return ask(i, e) }); msg != "" {
				t.Fatalf("op %d, %s: %s", op, cs[i].name(), msg)
			}
		}
	}
	pool := make([]engine.Query, 12)
	want := make([][]string, len(pool))
	pr := &opReader{buf: randomOps(seed, 16*len(pool))}
	for j := range pool {
		pool[j] = pr.query(pr.next())
		res, _ := oracle.Query(pool[j])
		want[j] = tuples(res, pool[j].Projs)
	}
	for i, e := range es {
		if re, ok := e.(*remoteEngine); ok {
			pipeline(t, cs[i].name(), re, pool, want)
		}
	}
}

// try runs f and turns a panic into what it says.
func try(f func() string) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint("panic: ", p)
		}
	}()
	return f()
}

// pipeline asks a remote cell the pool's queries from six goroutines at
// once over its pooled connections: every answer must still be Scan's, and
// the server must record no error.
func pipeline(t *testing.T, name string, e *remoteEngine, pool []engine.Query, want [][]string) {
	var wg sync.WaitGroup
	fail := make(chan string, 6)
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 30 {
				j := rng.Intn(len(pool))
				res, _, err := e.c.Query(pool[j])
				if err != nil {
					fail <- fmt.Sprintf("pipelined query %d: %v", j, err)
					return
				}
				if msg := sameAnswer(res, pool[j].Projs, want[j]); msg != "" {
					fail <- fmt.Sprintf("pipelined query %d %+v: %s", j, pool[j], msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatalf("%s: %s", name, msg)
	}
	if st := e.s.Stats(); st.Errors != 0 {
		t.Fatalf("%s: the server recorded %d errors", name, st.Errors)
	}
}

// encode is res in the canonical wire encoding, which sorts columns: two
// results encode alike iff they hold the same rows in the same order with
// the same projections.
func encode(res engine.Result) []byte {
	return wire.AppendResponse(nil, &wire.Response{Op: wire.OpQuery, Result: res})
}
