// Concurrent serving: many clients, one shared engine. The serving layer
// wraps the engine in the two-phase (QueryRO, then Query) Concurrent protocol,
// so after a warm-up the clients' aligned repeat queries run genuinely in
// parallel under a shared read lock — only queries that actually crack new
// ranges or merge updates serialize behind the write lock. (`bash
// benchmark/run.sh --workload serve-warm` measures it.)
package main

import (
	"fmt"
	"math/rand"
	"sync"

	crackstore "crackstore"
)

const (
	rows    = 100_000
	clients = 8
	perEach = 2_000
)

// warmEngine builds the engine and runs one pass over the pool, which
// cracks every hot range.
func warmEngine(qs []crackstore.Query) crackstore.Engine {
	rng := rand.New(rand.NewSource(1))
	rel := crackstore.Build("orders", rows,
		[]string{"amount", "customer"},
		func(string, int) crackstore.Value { return rng.Int63n(rows) })
	e := crackstore.Open(crackstore.Sideways, rel)
	for _, q := range qs {
		e.Query(q)
	}
	return e
}

// pool is the clients' shared hot query set: narrow ranges over amount.
func pool() []crackstore.Query {
	rng := rand.New(rand.NewSource(2))
	qs := make([]crackstore.Query, 32)
	for i := range qs {
		lo := rng.Int63n(rows - 200)
		qs[i] = crackstore.Query{
			Preds: []crackstore.AttrPred{{Attr: "amount", Pred: crackstore.Range(lo, lo+100)}},
			Projs: []string{"customer"},
		}
	}
	return qs
}

func main() {
	qs := pool()
	srv := crackstore.Serve(warmEngine(qs), crackstore.ServeOptions{Workers: clients})
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perEach; i++ {
				if _, _, err := srv.Do(qs[rng.Intn(len(qs))]); err != nil {
					panic(err)
				}
			}
		}(int64(c))
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("%d clients, one shared sideways engine: %d queries  %.0f q/s   p50=%v p99=%v max=%v\n",
		clients, st.Queries, st.QPS, st.P50, st.P99, st.Max)
	cs, _ := crackstore.ConcurrencyStats(srv.Engine())
	fmt.Printf("readers blocked behind a writer %d times (%v in total)\n", cs.ReaderWaits, cs.ReaderWait)
}
