package engine

import (
	"math/rand"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/store"
)

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
		km := inner.(*selCrackEngine).Store().SetIfExists("A").MapIfExists("")
		if km.Pairs().Policy.Kind != crack.Stochastic {
			t.Fatalf("%s: cracker column policy = %v, want stochastic", tc.name, km.Pairs().Policy.Kind)
		}
		if ReportOf(e).Kernel.Aux == 0 {
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
