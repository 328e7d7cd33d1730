package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// TestServePolicyEngine: an engine built with an adaptive cracking policy
// (engine.NewWith — the policy is decided where the engine is built, not by
// the server) serves answers that match a default-policy reference engine
// exactly.
func TestServePolicyEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rel := buildRel(rng, 4000, 800)
	clone := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		clone.MustColumn(a).Vals = append([]store.Value(nil), rel.MustColumn(a).Vals...)
	}
	pol := crack.Policy{Kind: crack.Stochastic, Cap: 256, Seed: 6}
	srv := New(engine.NewWith(engine.SelCrack, rel, engine.Options{Policy: pol}), Options{Workers: 2})
	defer srv.Close()
	ref := engine.New(engine.SelCrack, clone)

	canon := func(res engine.Result) []string {
		out := make([]string, res.N)
		for i := 0; i < res.N; i++ {
			out[i] = fmt.Sprint(res.Cols["B"][i])
		}
		sort.Strings(out)
		return out
	}
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(800)
		query := engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+1+rng.Int63n(100))}},
			Projs: []string{"B"},
		}
		res, _, err := srv.Do(query)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		want, _ := ref.Query(query)
		g, w := canon(res), canon(want)
		if len(g) != len(w) {
			t.Fatalf("q%d: served %d rows, reference %d", q, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("q%d: served results diverged at %d", q, i)
			}
		}
	}
}
