package crackstore_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	crackstore "crackstore"
)

func TestBuildDictAndPrefixQueries(t *testing.T) {
	d := crackstore.BuildDict([]string{"rome", "paris", "prague", "porto"})
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	p := d.PrefixPred("p")
	matched := 0
	for c := 0; c < d.Len(); c++ {
		if p.Matches(crackstore.Value(c)) {
			matched++
		}
	}
	if matched != 3 {
		t.Fatalf("prefix p matched %d, want 3", matched)
	}
}

func TestClusteredMaxMin(t *testing.T) {
	rel := demoRelation(500, 11)
	e := crackstore.Open(crackstore.Sideways, rel)
	// Crack a little first so the clustered path has pieces to use.
	e.Query(crackstore.Query{
		Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(100, 600)}},
		Projs: []string{"B"},
	})
	var wantMax, wantMin crackstore.Value = -1, 1 << 62
	for _, v := range rel.MustColumn("A").Vals {
		if v > wantMax {
			wantMax = v
		}
		if v < wantMin {
			wantMin = v
		}
	}
	if m, ok := crackstore.ClusteredMax(e, "A"); !ok || m != wantMax {
		t.Fatalf("ClusteredMax = %d,%v want %d", m, ok, wantMax)
	}
	if m, ok := crackstore.ClusteredMin(e, "A"); !ok || m != wantMin {
		t.Fatalf("ClusteredMin = %d,%v want %d", m, ok, wantMin)
	}
	// Non-sideways engines report !ok.
	if _, ok := crackstore.ClusteredMax(crackstore.Open(crackstore.Scan, demoRelation(10, 1)), "A"); ok {
		t.Fatal("ClusteredMax on scan engine should report !ok")
	}
}

func TestCrackerJoinPublic(t *testing.T) {
	l := crackstore.Open(crackstore.Sideways, demoRelation(400, 12))
	r := crackstore.Open(crackstore.Sideways, demoRelation(400, 13))
	pairs, err := crackstore.CrackerJoin(l, "A", r, "A", 8)
	if err != nil {
		t.Fatal(err)
	}
	// Reference cardinality from fresh copies of the same relations.
	lc := map[crackstore.Value]int{}
	for _, v := range demoRelation(400, 12).MustColumn("A").Vals {
		lc[v]++
	}
	rc := map[crackstore.Value]int{}
	for _, v := range demoRelation(400, 13).MustColumn("A").Vals {
		rc[v]++
	}
	want := 0
	for k, c := range lc {
		want += c * rc[k]
	}
	if len(pairs) != want {
		t.Fatalf("CrackerJoin returned %d pairs, want %d", len(pairs), want)
	}
	// Deterministic across repeats.
	again, _ := crackstore.CrackerJoin(l, "A", r, "A", 8)
	canon := func(ps []crackstore.KeyPair) []crackstore.KeyPair {
		out := append([]crackstore.KeyPair(nil), ps...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].LKey != out[j].LKey {
				return out[i].LKey < out[j].LKey
			}
			return out[i].RKey < out[j].RKey
		})
		return out
	}
	a, b := canon(pairs), canon(again)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("CrackerJoin not deterministic across repeats")
		}
	}
	// Wrong engine kinds are rejected.
	if _, err := crackstore.CrackerJoin(
		crackstore.Open(crackstore.Scan, demoRelation(10, 1)), "A", r, "A", 4); err == nil {
		t.Fatal("CrackerJoin should reject non-sideways engines")
	}
}

func TestConcurrentPublic(t *testing.T) {
	e := crackstore.Concurrent(crackstore.Open(crackstore.Sideways, demoRelation(2000, 14)))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				lo := rng.Int63n(900)
				e.Query(crackstore.Query{
					Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(lo, lo+100)}},
					Projs: []string{"B", "C"},
				})
			}
		}(int64(g))
	}
	wg.Wait()
	res, _ := e.Query(crackstore.Query{
		Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(0, 1000)}},
		Projs: []string{"B"},
	})
	if res.N != 2000 {
		t.Fatalf("post-concurrency full query N = %d, want 2000", res.N)
	}
}

// TestShardedPublic drives the sharded engine through the public API: a
// sharded engine served to many clients must agree with a single engine
// over the same rows, and the serving stats must reflect every query.
func TestShardedPublic(t *testing.T) {
	// The reference engine is queried from every client goroutine too, so
	// it needs its own concurrency wrapper (cracking mutates on read).
	single := crackstore.Concurrent(crackstore.Open(crackstore.Sideways, demoRelation(2000, 21)))
	sharded := crackstore.Sharded(crackstore.Sideways, demoRelation(2000, 21), 4,
		crackstore.ShardOptions{Attr: "A"})

	srv := crackstore.Serve(sharded, crackstore.ServeOptions{Workers: 4})
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				lo := rng.Int63n(900)
				q := crackstore.Query{
					Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(lo, lo+60)}},
					Projs: []string{"B"},
				}
				want, _ := single.Query(q)
				got, _, err := srv.Do(q)
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if got.N != want.N {
					t.Errorf("sharded N=%d, single N=%d", got.N, want.N)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := srv.Stats()
	if st.Queries != 4*25 || st.Errors != 0 {
		t.Fatalf("stats: %d queries, %d errors; want 100, 0", st.Queries, st.Errors)
	}
}
