package netserve

import (
	"math/rand"
	"runtime"
	"testing"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// TestWarmRoundTripAllocBudget: a warm remote query allocates what its
// caller keeps — the decoded result — and little else: the server answers
// into the one Result its connection's reader lends, and each side reads
// every frame into its connection's one buffer. Server,
// client and this loop share the process, so TotalAlloc sees the whole round
// trip: at most 1.5x the decoded bytes plus 2 KB of small change per query
// (requests, responses, maps, the frame pools' refills after a collection).
// With a fresh column and two fresh payloads per query it was about 3.4x.
func TestWarmRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its puts")
	}
	const queries = 2000
	s := startServer(t, engine.New(engine.Sideways, buildRel(3, 100_000, 50_000)), Options{})
	c := dial(t, s, client.Options{Conns: 2})
	rng := rand.New(rand.NewSource(4))
	pool := make([]engine.Query, 32)
	for i := range pool {
		lo := 1 + rng.Int63n(49_000)
		pool[i] = engine.Query{ // ~1,000 tuples: an 8 KB answer, the benchmark's size
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+500)}},
			Projs: []string{"B"},
		}
	}
	run := func(n int) (decoded uint64) {
		for i := 0; i < n; i++ {
			res, _, err := c.Query(pool[rng.Intn(len(pool))])
			if err != nil {
				t.Fatal(err)
			}
			decoded += uint64(8 * len(res.Cols["B"]))
		}
		return decoded
	}
	for _, q := range pool { // crack every range, size every buffer
		if _, _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	run(4 * len(pool))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decoded := run(queries)
	runtime.ReadMemStats(&m1)
	got, budget := m1.TotalAlloc-m0.TotalAlloc, decoded*3/2+2048*queries
	t.Logf("%d B allocated per warm query for %d B decoded (%.2fx; the budget is %d B)",
		got/queries, decoded/queries, float64(got)/float64(decoded), budget/queries)
	if got > budget {
		t.Errorf("%d warm queries allocated %d B for %d B of decoded results, over the budget of %d B", queries, got, decoded, budget)
	}
}

// TestInProcessAnswersStayExact: the memory a reader lends its inline answers
// stays its own. After remote round trips, an in-process caller of the same
// engine still gets a column of exactly its answer's length.
func TestInProcessAnswersStayExact(t *testing.T) {
	s := startServer(t, engine.New(engine.Sideways, buildRel(3, 100_000, 50_000)), Options{})
	c := dial(t, s, client.Options{})
	q := engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(20_000, 20_500)}}, Projs: []string{"B"}} // ~1,000 tuples
	for i := 0; i < 4; i++ {
		if _, _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if res, _, ok := s.Engine().QueryRO(q); !ok || res.N == 0 || cap(res.Cols["B"]) != res.N {
		t.Fatalf("ok=%v: %d values in a column of capacity %d", ok, res.N, cap(res.Cols["B"]))
	}
}
