package main

import (
	"crackstore/internal/engine"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

var attrs = []string{"A", "B", "C", "D", "E", "F"}

// buildRelation generates R: rows x 6 integer attributes, each uniform on
// [1, rows]. The seed stops here: engines receive only the relation.
func buildRelation(rows int, seed int64) *store.Relation {
	rel := store.NewRelation("R", attrs...)
	for i, a := range attrs {
		rel.MustColumn(a).Vals = workload.New(int64(rows), seed*101+int64(i)).Values(rows)
	}
	return rel
}

// cloneRelation copies rel so that an engine may reorganise and append to
// its own copy.
func cloneRelation(rel *store.Relation) *store.Relation {
	out := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		out.MustColumn(a).Vals = append([]store.Value(nil), rel.MustColumn(a).Vals...)
	}
	return out
}

// sel is one selection of a query shape: an attribute and the share of the
// domain its range covers.
type sel struct {
	attr string
	frac float64
}

// shape is a query "type": fixed selection and projection attributes whose
// range bounds are drawn per query.
type shape struct {
	sels  []sel
	projs []string
}

func (s shape) draw(g *workload.Gen) engine.Query {
	q := engine.Query{Projs: s.projs, Preds: make([]engine.AttrPred, len(s.sels))}
	for i, sl := range s.sels {
		q.Preds[i] = engine.AttrPred{Attr: sl.attr, Pred: g.Range(sl.frac)}
	}
	return q
}

// The shapes of the exploration workloads.
var (
	shapeT1 = shape{[]sel{{"A", 0.01}}, []string{"B", "C"}}
	shapeT2 = shape{[]sel{{"A", 0.01}, {"D", 0.5}}, []string{"E"}}
	shapeT3 = shape{[]sel{{"B", 0.01}}, []string{"A", "F"}}

	exploreShapes = []shape{shapeT1, shapeT2, shapeT3}

	// budgetShapes is the Section 4.2 / Fig 9 cycle on six attributes:
	// five types that together want five full maps of S_A.
	budgetShapes = func() []shape {
		pairs := [][2]string{{"B", "C"}, {"C", "D"}, {"D", "E"}, {"E", "F"}, {"F", "B"}}
		out := make([]shape, len(pairs))
		for i, p := range pairs {
			out[i] = shape{[]sel{{"A", 0.01}, {p[0], 0.5}}, []string{p[1]}}
		}
		return out
	}()
)

// narrowFrac is the selectivity of the serving workloads' pool and churn
// queries: about rows/2000 tuples per result.
const narrowFrac = 0.0005

// narrowT1 draws a T1-shaped query of narrowFrac selectivity whose range
// lies within [lo, hi] of A's domain.
func narrowT1(g *workload.Gen, lo, hi int64) engine.Query {
	return engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: g.RangeIn(lo, hi, narrowFrac)}},
		Projs: shapeT1.projs,
	}
}

// opKind distinguishes the operations of a single-client op stream.
type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// op is one operation of a pre-generated stream. Inserts name the key the
// engine must return: keys are dense append positions, so the stream can
// be generated before any engine exists.
type op struct {
	kind opKind
	q    engine.Query
	vals []store.Value
	key  int
}

// cycleQueries draws n queries cycling through shapes in batches.
func cycleQueries(g *workload.Gen, n, batch int, shapes []shape) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opQuery, q: shapes[workload.BatchCycle(i, batch, len(shapes))].draw(g)}
	}
	return ops
}

// liveKeys tracks which tuple keys exist, so update streams delete only
// live tuples and every operation succeeds.
type liveKeys struct {
	keys []int
	next int // key the next insert receives
}

// newLiveKeys starts from the base relation's keys whose A value lies in
// [aLo, aHi].
func newLiveKeys(rel *store.Relation, aLo, aHi int64) *liveKeys {
	l := &liveKeys{next: rel.NumRows()}
	for k, a := range rel.MustColumn("A").Vals {
		if a >= aLo && a <= aHi {
			l.keys = append(l.keys, k)
		}
	}
	return l
}

// deleteOp deletes a random live tuple.
func (l *liveKeys) deleteOp(g *workload.Gen) op {
	i := g.Intn(len(l.keys))
	victim := l.keys[i]
	l.keys[i] = l.keys[len(l.keys)-1]
	l.keys = l.keys[:len(l.keys)-1]
	return op{kind: opDelete, key: victim}
}

// insertOp inserts a random tuple whose A value lies in [aLo, aHi].
func (l *liveKeys) insertOp(g *workload.Gen, aLo, aHi int64) op {
	vals := g.Values(len(attrs))
	vals[0] = aLo + vals[0]%(aHi-aLo+1)
	o := op{kind: opInsert, vals: vals, key: l.next}
	l.keys = append(l.keys, l.next)
	l.next++
	return o
}

// update is the paper's update: a deletion of a random live tuple plus an
// insertion of a random new one.
func (l *liveKeys) update(ops []op, g *workload.Gen, aLo, aHi int64) []op {
	return append(ops, l.deleteOp(g), l.insertOp(g, aLo, aHi))
}
