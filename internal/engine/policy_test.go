package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/store"
)

func cloneRelForPolicy(rel *store.Relation) *store.Relation {
	out := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		out.MustColumn(a).Vals = append([]Value(nil), rel.MustColumn(a).Vals...)
	}
	return out
}

func sortedRows(res Result, projs []string) []string {
	rows := make([]string, res.N)
	for i := 0; i < res.N; i++ {
		row := make([]Value, len(projs))
		for j, attr := range projs {
			row[j] = res.Cols[attr][i]
		}
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return rows
}

// TestPolicyEnginesMatchDefault: for every cracking engine kind and
// adaptive policy, a mixed workload (conjunctive and disjunctive selects,
// inserts, deletes) must return exactly the answers of the default-policy
// engine — auxiliary pivots change layouts, never results.
func TestPolicyEnginesMatchDefault(t *testing.T) {
	const n, domain = 3000, 500
	for _, kind := range []Kind{SelCrack, Sideways, PartialSideways} {
		for _, polKind := range []crack.PolicyKind{crack.Stochastic, crack.Capped} {
			rng := rand.New(rand.NewSource(int64(17 + int(kind)*10 + int(polKind))))
			base := buildRel(rng, n, []string{"A", "B", "C"}, domain)
			def := New(kind, cloneRelForPolicy(base))
			pol := NewWith(kind, cloneRelForPolicy(base),
				Options{Policy: crack.Policy{Kind: polKind, Cap: 128, Seed: 9}})
			for q := 0; q < 30; q++ {
				lo := rng.Int63n(domain)
				w := 1 + rng.Int63n(domain/4)
				query := Query{
					Preds:       []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+w)}},
					Projs:       []string{"B", "C"},
					Disjunctive: false,
				}
				if q%5 == 4 {
					query.Preds = append(query.Preds,
						AttrPred{Attr: "B", Pred: store.Range(0, domain/2)})
					query.Disjunctive = q%10 == 9
				}
				dres, _ := def.Query(query)
				pres, _ := pol.Query(query)
				dr, pr := sortedRows(dres, query.Projs), sortedRows(pres, query.Projs)
				if len(dr) != len(pr) {
					t.Fatalf("%v/%v q%d: %d rows vs default %d", kind, polKind, q, len(pr), len(dr))
				}
				for i := range dr {
					if dr[i] != pr[i] {
						t.Fatalf("%v/%v q%d: row %d diverged: %s vs %s", kind, polKind, q, i, pr[i], dr[i])
					}
				}
				if q%3 == 2 {
					vals := []Value{rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain)}
					k1 := def.Insert(vals...)
					k2 := pol.Insert(vals...)
					if k1 != k2 {
						t.Fatalf("%v/%v: keys diverged: %d vs %d", kind, polKind, k1, k2)
					}
				}
				if q%7 == 6 {
					def.Delete(q * 13 % n)
					pol.Delete(q * 13 % n)
				}
			}
		}
	}
}

// TestPolicyThreadsThroughWrappers: a policy given where a guarded stack is
// built (the Concurrent guard alone, and embedded in the durable engine)
// must reach the inner engine and actually introduce auxiliary pivots on
// oversized pieces.
func TestPolicyThreadsThroughWrappers(t *testing.T) {
	for _, tc := range guardCases() {
		rng := rand.New(rand.NewSource(5))
		rel := buildRel(rng, 20000, []string{"A", "B"}, 20000)
		e := tc.open(t, SelCrack, rel, crack.Policy{Kind: crack.Stochastic, Cap: 512, Seed: 3})
		e.Query(Query{
			Preds: []AttrPred{{Attr: "A", Pred: store.Range(100, 200)}},
			Projs: []string{"B"},
		})
		var inner Engine
		switch w := e.(type) {
		case *rwEngine:
			inner = w.e
		case *durEngine:
			inner = w.e
		}
		sc := inner.(*selCrackEngine)
		col := sc.cols["A"]
		if col.P.Policy.Kind != crack.Stochastic {
			t.Fatalf("%s: cracker column policy = %v, want stochastic", tc.name, col.P.Policy.Kind)
		}
		if col.P.Stats.Aux == 0 {
			t.Fatalf("%s: no auxiliary pivots on a 20000-tuple cold crack with cap 512", tc.name)
		}
	}
}

// TestPolicyIgnoredByNonCrackingEngines: Scan has no kernel to configure;
// built with a policy — bare or behind a guard — it must ignore it, grow no
// kernel section, and keep working.
func TestPolicyIgnoredByNonCrackingEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pol := crack.Policy{Kind: crack.Capped, Cap: 16}
	for _, kind := range []Kind{Scan} {
		engines := []Engine{NewWith(kind, buildRel(rng, 500, []string{"A", "B"}, 100), Options{Policy: pol})}
		for _, gc := range guardCases() {
			engines = append(engines, gc.open(t, kind, buildRel(rng, 500, []string{"A", "B"}, 100), pol))
		}
		for _, e := range engines {
			res, _ := e.Query(Query{
				Preds: []AttrPred{{Attr: "A", Pred: store.Range(10, 50)}},
				Projs: []string{"B"},
			})
			if res.N == 0 {
				t.Fatalf("%v (%T): engine broken when built with a policy", kind, e)
			}
			if ReportOf(e).Kernel != nil {
				t.Fatalf("%v (%T): a non-cracking engine reports a kernel", kind, e)
			}
		}
	}
}
