package shard

import (
	"math/rand"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// TestPolicyReachesEveryShard: the policy given in Options is every
// shard's. Cap 256 on ~1700-row shards forces auxiliary pivots on the first
// crack of each.
func TestPolicyReachesEveryShard(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := New(engine.SelCrack, buildRel(rng, 5000, 1000), 3, Options{Attr: "A", Policy: crack.Policy{Kind: crack.Capped, Cap: 256}})
	for q := 0; q < 25; q++ {
		lo := rng.Int63n(1000)
		s.Query(engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+1+rng.Int63n(120))}},
			Projs: []string{"B"},
		})
	}
	for i, sh := range s.shards {
		if k, _ := engine.KernelReportOf(sh); k.Visited > 0 && k.Aux == 0 {
			t.Fatalf("shard %d cracked without auxiliary pivots: policy not applied", i)
		}
	}
}
