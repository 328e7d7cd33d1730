// Sharded serving: one relation range-partitioned across four engines,
// each behind its own Concurrent lock. A single Concurrent engine
// already serves read-only repeats in parallel, but every crack — and
// cracking stores turn reads into writes — still stalls the whole
// relation behind one write lock. Sharding splits that lock: a client
// whose query cracks new ground on shard 3 blocks only shard 3, while
// queries over the other shards' value bands keep streaming. Range
// pruning means a narrow predicate usually touches exactly one shard.
package main

import (
	"fmt"
	"math/rand"
	"sync"

	crackstore "crackstore"
)

const (
	rows    = 100_000
	shards  = 4
	clients = 8
	perEach = 2_000
)

func buildRelation() *crackstore.Relation {
	rng := rand.New(rand.NewSource(1))
	return crackstore.Build("orders", rows,
		[]string{"amount", "customer"},
		func(string, int) crackstore.Value { return rng.Int63n(rows) })
}

// pool mixes a warm hot set with fresh, never-seen ranges: the fresh
// ranges force cracks during the run, which is where per-shard locking
// pays off.
func pool(seed int64) []crackstore.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]crackstore.Query, 64)
	for i := range qs {
		lo := rng.Int63n(rows - 200)
		qs[i] = crackstore.Query{
			Preds: []crackstore.AttrPred{{Attr: "amount", Pred: crackstore.Range(lo, lo+100)}},
			Projs: []string{"customer"},
		}
	}
	return qs
}

func run(name string, e crackstore.Engine) {
	warm := pool(2)
	for _, q := range warm {
		e.Query(q)
	}
	srv := crackstore.Serve(e, crackstore.ServeOptions{Workers: clients})
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			fresh := pool(100 + seed) // cold ranges: these crack mid-run
			for i := 0; i < perEach; i++ {
				q := warm[rng.Intn(len(warm))]
				if rng.Intn(8) == 0 {
					q = fresh[rng.Intn(len(fresh))]
				}
				if _, _, err := srv.Do(q); err != nil {
					panic(err)
				}
			}
		}(int64(c))
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("%-12s %8d queries  %3d errors  %10.0f q/s   p50=%-9v p99=%-9v max=%v\n",
		name, st.Queries, st.Errors, st.QPS, st.P50, st.P99, st.Max)
}

func main() {
	fmt.Printf("%d clients, %d queries each, cracking mid-run (1 in 8 queries hits a cold range)\n\n",
		clients, perEach)
	run("concurrent", crackstore.Concurrent(crackstore.Open(crackstore.Sideways, buildRelation())))
	run("sharded", crackstore.Sharded(crackstore.Sideways, buildRelation(), shards,
		crackstore.ShardOptions{Attr: "amount"}))
	fmt.Println("\nThe single concurrent engine stalls every client whenever any query")
	fmt.Println("cracks; the sharded engine confines each crack to the one shard that")
	fmt.Println("owns the value band, so the other shards keep serving reads.")
}
