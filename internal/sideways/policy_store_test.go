package sideways

import (
	"math/rand"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/store"
)

// TestPolicyFrozenPerSet: a map set freezes the store policy at creation,
// so changing Store.Policy mid-run configures future sets without
// misaligning existing ones — every map of a set must replay the tape
// under one policy.
func TestPolicyFrozenPerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rel := buildRel(rng, 6000, []string{"A", "B", "C"}, 600)
	nv := &naive{rel: rel, dead: map[int]bool{}}
	s := NewStore(rel)

	check := func(attr string, pred store.Pred, ctx string) {
		t.Helper()
		preds := []AttrPred{{Attr: attr, Pred: pred}}
		projs := []string{"B", "C"}
		if attr == "B" {
			projs = []string{"A", "C"}
		}
		res := s.MultiSelect(preds, projs, false)
		equalRows(t, resultRows(res, projs), nv.rows(preds, projs, false), ctx)
	}

	// Set A materializes under the default policy.
	check("A", store.Range(100, 140), "A under default")
	s.Policy = crack.Policy{Kind: crack.Stochastic, Cap: 256, Seed: 4}
	// Set A keeps its frozen default policy: later cracks and map
	// materializations (new tail attrs replay the tape) must stay aligned.
	for q := 0; q < 12; q++ {
		lo := rng.Int63n(600)
		check("A", store.Range(lo, lo+1+rng.Int63n(80)), "A after policy change")
	}
	for _, m := range s.sets["A"].Maps() {
		if m.pairs.Policy.Kind != crack.Default {
			t.Fatalf("map of pre-change set adopted policy %v", m.pairs.Policy.Kind)
		}
	}

	// Set B materializes under the stochastic policy and must cap pieces.
	for q := 0; q < 12; q++ {
		lo := rng.Int63n(600)
		check("B", store.Range(lo, lo+1+rng.Int63n(40)), "B under stochastic")
	}
	sawAux := false
	for _, m := range s.sets["B"].Maps() {
		if m.pairs.Policy.Kind != crack.Stochastic {
			t.Fatalf("map of post-change set has policy %v, want stochastic", m.pairs.Policy.Kind)
		}
		if m.pairs.Stats.Aux > 0 {
			sawAux = true
		}
	}
	if !sawAux {
		t.Fatal("stochastic set introduced no auxiliary pivots on 6000 tuples with cap 256")
	}
}

// TestPolicyStoreWithUpdates: a stochastic store must answer a mixed
// select/insert/delete workload exactly like the naive evaluator —
// auxiliary pivots must ripple like ordinary boundaries through tape
// replay on late-materialized maps.
func TestPolicyStoreWithUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := buildRel(rng, 4000, []string{"A", "B", "C"}, 400)
	nv := &naive{rel: rel, dead: map[int]bool{}}
	s := NewStore(rel)
	s.Policy = crack.Policy{Kind: crack.Stochastic, Cap: 128, Seed: 11}

	projPick := [][]string{{"B"}, {"B", "C"}, {"C"}}
	for q := 0; q < 40; q++ {
		lo := rng.Int63n(400)
		preds := []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+1+rng.Int63n(60))}}
		projs := projPick[q%len(projPick)]
		res := s.MultiSelect(preds, projs, false)
		equalRows(t, resultRows(res, projs), nv.rows(preds, projs, false), "stochastic store")
		switch {
		case q%4 == 3:
			vals := []Value{rng.Int63n(400), rng.Int63n(400), rng.Int63n(400)}
			s.Insert(vals...)
		case q%9 == 8:
			k := rng.Intn(rel.NumRows())
			s.Delete(k)
			nv.dead[k] = true
		}
	}
}
