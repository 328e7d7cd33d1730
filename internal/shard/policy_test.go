package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/store"
)

func sortedCol(res engine.Result, attr string) []string {
	out := make([]string, res.N)
	for i := 0; i < res.N; i++ {
		out[i] = fmt.Sprint(res.Cols[attr][i])
	}
	sort.Strings(out)
	return out
}

// TestShardedPolicyMatchesUnsharded: a sharded engine built with
// Options.Policy must answer exactly like an unsharded engine under the
// same policy (and therefore like any default-policy engine).
func TestShardedPolicyMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rel := buildRel(rng, 5000, 1000)
	clone := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		clone.MustColumn(a).Vals = append([]store.Value(nil), rel.MustColumn(a).Vals...)
	}
	pol := crack.Policy{Kind: crack.Capped, Cap: 256}
	sharded := New(engine.SelCrack, rel, 3, Options{Attr: "A", Policy: pol})
	single := engine.NewWith(engine.SelCrack, clone, engine.Options{Policy: pol})
	for q := 0; q < 25; q++ {
		lo := rng.Int63n(1000)
		query := engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+1+rng.Int63n(120))}},
			Projs: []string{"B"},
		}
		sres, _ := sharded.Query(query)
		ures, _ := single.Query(query)
		sr, ur := sortedCol(sres, "B"), sortedCol(ures, "B")
		if len(sr) != len(ur) {
			t.Fatalf("q%d: sharded %d rows, unsharded %d", q, len(sr), len(ur))
		}
		for i := range sr {
			if sr[i] != ur[i] {
				t.Fatalf("q%d: results diverged at %d", q, i)
			}
		}
	}
	// The policy reached every shard's kernel: cap 256 on ~1700-row shards
	// forces auxiliary pivots on the first crack of each.
	for i, sh := range sharded.shards {
		if k, _ := engine.KernelReportOf(sh); k.Visited > 0 && k.Aux == 0 {
			t.Fatalf("shard %d cracked without auxiliary pivots: policy not applied", i)
		}
	}
}
