package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

func buildRel(rng *rand.Rand, n int, domain int64) *store.Relation {
	return store.Build("R", n, []string{"A", "B", "C"}, func(attr string, row int) Value {
		return rng.Int63n(domain)
	})
}

func cloneRel(rel *store.Relation) *store.Relation {
	out := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		out.MustColumn(a).Vals = append([]Value(nil), rel.MustColumn(a).Vals...)
	}
	return out
}

// canonRows reduces a result to a sorted row multiset for order-insensitive
// comparison.
func canonRows(res engine.Result, projs []string) []string {
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

// TestShardedMatchesSingle is the layout-equivalence property test: a
// sharded engine and a single engine of the same kind replay an identical
// random query/insert/delete interleaving and must produce identical result
// multisets for every query — for every engine kind, under both range and
// hash partitioning. Global keys agree by construction (build order, then
// insertion order), so deletes target the same tuples on both sides.
//
// Every query is asked read-only as well, into one Result lent for the whole
// replay that holds the previous answer: a fan-out that let its shards write
// into the lent memory side by side answers wrong.
func TestShardedMatchesSingle(t *testing.T) {
	const (
		rows   = 400
		domain = 500
		ops    = 80
		nsh    = 4
	)
	for _, kind := range engine.Kinds() {
		for _, hash := range []bool{false, true} {
			mode := "range"
			if hash {
				mode = "hash"
			}
			t.Run(fmt.Sprintf("%v/%s", kind, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				base := buildRel(rng, rows, domain)
				single := engine.New(kind, cloneRel(base))
				sharded := New(kind, cloneRel(base), nsh, Options{Attr: "A", Hash: hash})
				if !hash && sharded.hash {
					t.Fatalf("range partitioning unexpectedly fell back to hash")
				}

				var lent engine.Result
				keys := make([]int, rows)
				for i := range keys {
					keys[i] = i
				}
				for op := 0; op < ops; op++ {
					switch r := rng.Intn(10); {
					case r < 6: // query
						lo := rng.Int63n(domain)
						q := engine.Query{
							Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+1+rng.Int63n(domain/4))}},
							Projs: []string{"B", "C"},
						}
						if rng.Intn(3) == 0 {
							blo := rng.Int63n(domain)
							q.Preds = append(q.Preds, engine.AttrPred{Attr: "B", Pred: store.Range(blo, blo+domain/5)})
							q.Disjunctive = rng.Intn(2) == 0
						}
						want, _ := single.Query(q)
						got, _ := sharded.Query(q)
						if got.N != want.N {
							t.Fatalf("op %d: sharded N=%d, single N=%d (query %+v)", op, got.N, want.N, q)
						}
						w, g := canonRows(want, q.Projs), canonRows(got, q.Projs)
						for i := range w {
							if w[i] != g[i] {
								t.Fatalf("op %d row %d: sharded %s != single %s", op, i, g[i], w[i])
							}
						}
						q.Into = &lent
						if got, _, ok := sharded.QueryRO(q); ok && (len(got.Cols) != 2 || !slices.Equal(canonRows(got, q.Projs), w)) {
							t.Fatalf("op %d: the read-only answer into lent memory differs (query %+v)", op, q)
						}
					case r < 8: // insert
						vals := []Value{rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain)}
						k1 := single.Insert(vals...)
						k2 := sharded.Insert(vals...)
						if k1 != k2 {
							t.Fatalf("op %d: insert keys diverged: single %d, sharded %d", op, k1, k2)
						}
						keys = append(keys, k1)
					default: // delete
						if len(keys) == 0 {
							continue
						}
						i := rng.Intn(len(keys))
						single.Delete(keys[i])
						sharded.Delete(keys[i])
						keys = append(keys[:i], keys[i+1:]...)
					}
				}
			})
		}
	}
}

// identityRel builds a relation whose partition attribute equals the row
// index, giving exactly known quantile cuts (n/4, n/2, 3n/4 for 4 shards).
func identityRel(n int) *store.Relation {
	return store.Build("R", n, []string{"A", "B"}, func(attr string, row int) Value {
		return Value(row)
	})
}

// TestSpanPruning pins the pruning rule against known cuts [250 500 750]:
// span returns the half-open shard interval a query can touch.
func TestSpanPruning(t *testing.T) {
	s := New(engine.Sideways, identityRel(1000), 4, Options{Attr: "A"})
	if want := []Value{250, 500, 750}; !func() bool {
		if len(s.cuts) != len(want) {
			return false
		}
		for i := range want {
			if s.cuts[i] != want[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatalf("cuts = %v, want %v", s.cuts, want)
	}
	onA := func(p store.Pred) engine.Query {
		return engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: p}}}
	}
	cases := []struct {
		name   string
		q      engine.Query
		lo, hi int
	}{
		{"inside shard 0", onA(store.Range(10, 20)), 0, 1},
		{"boundary value starts shard 1", onA(store.Point(250)), 1, 2},
		{"last below the cut stays in shard 0", onA(store.Point(249)), 0, 1},
		{"straddles 0-1", onA(store.Range(240, 260)), 0, 2},
		{"inside shard 3", onA(store.Range(800, 900)), 3, 4},
		{"open-ended above", onA(store.Range(900, 5000)), 3, 4},
		{"open-ended below", onA(store.Range(-100, 5)), 0, 1},
		{"covers all", onA(store.Range(0, 1000)), 0, 4},
		{"open pred excludes its low bound", onA(store.Pred{Lo: 499, Hi: 700}), 1, 3},
		{"conjunction intersects", engine.Query{Preds: []engine.AttrPred{
			{Attr: "A", Pred: store.Range(0, 600)},
			{Attr: "A", Pred: store.Range(300, 1000)},
		}}, 1, 3},
		{"disjoint conjunction is empty", engine.Query{Preds: []engine.AttrPred{
			{Attr: "A", Pred: store.Range(0, 100)},
			{Attr: "A", Pred: store.Range(800, 900)},
		}}, 3, 3},
		{"non-partition attr cannot prune", engine.Query{Preds: []engine.AttrPred{
			{Attr: "B", Pred: store.Range(10, 20)},
		}}, 0, 4},
		{"conjunct on B still prunes via A", engine.Query{Preds: []engine.AttrPred{
			{Attr: "B", Pred: store.Range(0, 1000)},
			{Attr: "A", Pred: store.Range(600, 700)},
		}}, 2, 3},
		{"disjunction over A takes the covering interval", engine.Query{Preds: []engine.AttrPred{
			{Attr: "A", Pred: store.Range(10, 20)},
			{Attr: "A", Pred: store.Range(800, 900)},
		}, Disjunctive: true}, 0, 4},
		{"disjunction over A prunes the outer shards", engine.Query{Preds: []engine.AttrPred{
			{Attr: "A", Pred: store.Range(300, 350)},
			{Attr: "A", Pred: store.Range(600, 650)},
		}, Disjunctive: true}, 1, 3},
		{"disjunction with B fans out", engine.Query{Preds: []engine.AttrPred{
			{Attr: "A", Pred: store.Range(10, 20)},
			{Attr: "B", Pred: store.Range(800, 900)},
		}, Disjunctive: true}, 0, 4},
	}
	for _, tc := range cases {
		if lo, hi := s.span(tc.q); lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: span = [%d,%d), want [%d,%d)", tc.name, lo, hi, tc.lo, tc.hi)
		}
	}
}

// touchyEngine fails the test on any use: it stands in for a shard that a
// pruned query must never reach — neither its read nor its write lock.
type touchyEngine struct {
	t  *testing.T
	mu sync.Mutex
	n  int
}

func (e *touchyEngine) touched(what string) {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
	e.t.Errorf("pruned shard was touched: %s", what)
}

func (e *touchyEngine) Kind() engine.Kind { return engine.Sideways }
func (e *touchyEngine) Insert(...Value) int {
	e.touched("Insert")
	return 0
}
func (e *touchyEngine) Delete(int)   { e.touched("Delete") }
func (e *touchyEngine) Storage() int { e.touched("Storage"); return 0 }
func (e *touchyEngine) Query(engine.Query) (engine.Result, engine.Cost) {
	e.touched("Query")
	return engine.Result{}, engine.Cost{}
}
func (e *touchyEngine) QueryRO(engine.Query) (engine.Result, engine.Cost, bool) {
	e.touched("QueryRO")
	return engine.Result{}, engine.Cost{}, true
}

// TestPrunedShardNeverTouched replaces shard 3 with an engine that fails on
// any call, then runs queries, inserts, and deletes confined to
// shard 0's band: range pruning must keep shard 3 — and therefore its
// locks — completely out of the picture.
func TestPrunedShardNeverTouched(t *testing.T) {
	s := New(engine.Sideways, identityRel(1000), 4, Options{Attr: "A"})
	s.shards[3] = &touchyEngine{t: t}

	q := engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(10, 120)}},
		Projs: []string{"B"},
	}
	if res, _ := s.Query(q); res.N != 110 {
		t.Fatalf("query N=%d, want 110", res.N)
	}
	if _, _, ok := s.QueryRO(q); !ok {
		t.Fatalf("repeat in-band query refused read-only execution")
	}
	k := s.Insert(5, 5) // routes to shard 0
	s.Delete(k)
	s.Delete(3) // base row 3 lives in shard 0
}

// gateEngine blocks every Query until released, simulating a shard stuck
// in a long crack while holding its write lock.
type gateEngine struct {
	inner   engine.Engine
	entered chan struct{}
	release chan struct{}
}

func (e *gateEngine) Kind() engine.Kind { return e.inner.Kind() }
func (e *gateEngine) Query(q engine.Query) (engine.Result, engine.Cost) {
	e.entered <- struct{}{}
	<-e.release
	return e.inner.Query(q)
}
func (e *gateEngine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	return e.inner.QueryRO(q)
}
func (e *gateEngine) Insert(vals ...Value) int { return e.inner.Insert(vals...) }
func (e *gateEngine) Delete(key int)           { e.inner.Delete(key) }
func (e *gateEngine) Storage() int             { return e.inner.Storage() }

// TestStuckShardDoesNotBlockOthers pins the finer-grained concurrency the
// sharding layer exists for: while shard 1 is stuck mid-query (as if
// cracking under its write lock), queries confined to shard 0 keep
// completing.
func TestStuckShardDoesNotBlockOthers(t *testing.T) {
	s := New(engine.Sideways, identityRel(1000), 4, Options{Attr: "A"})
	gate := &gateEngine{
		inner:   s.shards[1],
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	s.shards[1] = gate

	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		s.Query(engine.Query{ // shard 1's band: blocks on the gate
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(300, 400)}},
			Projs: []string{"B"},
		})
	}()
	<-gate.entered // shard 1 is now wedged

	done := make(chan struct{})
	go func() {
		defer close(done)
		res, _ := s.Query(engine.Query{ // shard 0's band
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(10, 60)}},
			Projs: []string{"B"},
		})
		if res.N != 50 {
			t.Errorf("shard-0 query N=%d, want 50", res.N)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("query on shard 0 blocked behind a stuck shard 1")
	}
	close(gate.release)
	<-stuck
}

// TestHashFallback: a constant partition attribute cannot form distinct
// range bands; New must fall back to hashing and stay correct.
func TestHashFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := store.Build("R", 200, []string{"A", "B"}, func(attr string, row int) Value {
		if attr == "A" {
			return 7
		}
		return rng.Int63n(100)
	})
	s := New(engine.Sideways, cloneRel(rel), 4, Options{Attr: "A"})
	if !s.hash {
		t.Fatal("constant attribute did not fall back to hash partitioning")
	}
	res, _ := s.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Point(7)}},
		Projs: []string{"B"},
	})
	if res.N != 200 {
		t.Fatalf("N=%d, want 200", res.N)
	}
	// Hash mode prunes any single-value predicate to the owning shard —
	// including the half-open unit range callers use for point lookups.
	for _, p := range []store.Pred{store.Point(7), store.Range(7, 8), {Lo: 6, Hi: 8}} {
		lo, hi := s.span(engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: p}}})
		if hi-lo != 1 {
			t.Fatalf("hash span for %v = [%d,%d), want a single shard", p, lo, hi)
		}
	}
	if lo, hi := s.span(engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(5, 9)}}}); hi-lo != 4 {
		t.Fatalf("hash span for a real range = [%d,%d), want all shards", lo, hi)
	}
	// Empty relation is unpartitionable too.
	if !New(engine.Scan, store.NewRelation("E", "A"), 3, Options{}).hash {
		t.Fatal("empty relation did not fall back to hash partitioning")
	}
}

// TestSharedMarker: the sharded engine does its own locking, and its report
// says so — the engine layer must recognize that and refuse to re-wrap it.
func TestSharedMarker(t *testing.T) {
	s := New(engine.Sideways, identityRel(100), 2, Options{})
	if engine.ReportOf(s).Readers == nil {
		t.Fatal("sharded engine's report has no Readers section")
	}
	if engine.Concurrent(s) != engine.Engine(s) {
		t.Fatal("Concurrent(sharded) wrapped an engine that manages its own locks")
	}
}

// TestShardedConcurrentUse exercises the sharded engine from many
// goroutines (run with -race in CI): disjoint per-goroutine key bands as in
// the engine-level property test, mixed queries and updates.
func TestShardedConcurrentUse(t *testing.T) {
	const (
		gors   = 4
		band   = 1000
		perGor = 150
	)
	rel := store.NewRelation("R", "A", "B")
	rng := rand.New(rand.NewSource(12))
	for g := 0; g < gors; g++ {
		lo := int64(g * band)
		for i := 0; i < 200; i++ {
			rel.AppendRow(lo+rng.Int63n(band), lo+rng.Int63n(band))
		}
	}
	s := New(engine.Sideways, rel, 4, Options{Attr: "A"})
	var wg sync.WaitGroup
	for g := 0; g < gors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			lo := int64(g * band)
			var keys []int
			for i := 0; i < perGor; i++ {
				switch rng.Intn(4) {
				case 0:
					keys = append(keys, s.Insert(lo+rng.Int63n(band), lo+rng.Int63n(band)))
				case 1:
					if len(keys) > 0 {
						i := rng.Intn(len(keys))
						s.Delete(keys[i])
						keys = append(keys[:i], keys[i+1:]...)
					}
				default:
					qlo := lo + rng.Int63n(band-100)
					s.Query(engine.Query{
						Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(qlo, qlo+50)}},
						Projs: []string{"B"},
					})
				}
			}
		}(g)
	}
	wg.Wait()
}
