package main

import (
	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// oracleEvery is the sampling stride of the answer check: op 0 and every
// oracleEvery-th query keep their Result for comparison with the Scan
// engine after the clock has stopped.
const oracleEvery = 64

// kept is a query result held back for the oracle.
type kept struct {
	at  int // index into the op stream
	res engine.Result
}

// sameAnswer compares two results canonically, as wire's sorted-column
// encoding does: row counts equal and each projection column equal as a
// multiset. Cracked layouts return tuples in physical order, a scan in key
// order, so columns are compared by two order-independent digests (sum of
// values, sum of mixed values) rather than position by position.
func sameAnswer(got, want engine.Result, projs []string) bool {
	if got.N != want.N {
		return false
	}
	for _, a := range projs {
		g, w := got.Cols[a], want.Cols[a]
		if len(g) != got.N || len(w) != want.N || digest(g) != digest(w) {
			return false
		}
	}
	return true
}

func digest(vals []store.Value) (d [2]uint64) {
	for _, v := range vals {
		d[0] += uint64(v)
		d[1] += store.Mix64(uint64(v))
	}
	return d
}

// checkStream replays ops against the oracle — applying every insert and
// delete in order, so the oracle sees each kept query at the state the
// engine saw it — and returns the number of kept results that differ.
// keptRes must be ordered by op index.
func checkStream(oracle engine.Engine, ops []op, keptRes []kept) (mismatches int) {
	k := 0
	for i, o := range ops {
		switch o.kind {
		case opInsert:
			oracle.Insert(o.vals...)
		case opDelete:
			oracle.Delete(o.key)
		case opQuery:
			if k < len(keptRes) && keptRes[k].at == i {
				want, _ := oracle.Query(o.q)
				if !sameAnswer(keptRes[k].res, want, o.q.Projs) {
					mismatches++
				}
				k++
			}
		}
	}
	return mismatches + len(keptRes) - k
}

// everything selects every live tuple and projects B and C: compared with
// the oracle after a stream of writes (or a crash), a lost acknowledged
// insert or a resurrected delete changes the answer.
func everything(rows int) engine.Query {
	return engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Pred{Lo: 1, Hi: store.Value(rows), LoIncl: true, HiIncl: true}}},
		Projs: []string{"B", "C"},
	}
}
