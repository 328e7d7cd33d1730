// Storage budget: partial sideways cracking under a hard auxiliary-storage
// threshold (the paper's Section 4). A rotating report workload touches
// five different attribute pairs; full maps would need 10x the table size,
// but partial maps materialize only the chunks the workload actually
// reads, evict cold chunks least-frequently-used first, and recreate them
// on demand — always staying under the budget. Each chunk is a tail alone,
// without a head column: its area's span of the chunk map holds the head
// and decides every crack and ripple update, so a chunk costs half its
// tuples. On a stream with updates the span of an updated area takes
// columns of its own at the area's first update, and room is made under the
// budget before it does.
package main

import (
	"fmt"
	"math/rand"

	crackstore "crackstore"
	"crackstore/internal/workload"
)

func main() {
	const rows = 200000
	const budget = rows // auxiliary storage capped at one table's worth

	attrs := []string{"key", "b1", "b2", "b3", "b4", "b5", "c1", "c2", "c3", "c4", "c5"}
	rng := rand.New(rand.NewSource(3))
	rel := crackstore.Build("facts", rows, attrs,
		func(string, int) crackstore.Value { return rng.Int63n(rows) })

	e := crackstore.OpenWith(crackstore.PartialSideways, rel, crackstore.Options{Budget: budget})
	gen := workload.New(rows, 11)

	fmt.Printf("budget: %d tuples; full maps for this workload would need %d\n\n",
		budget, 10*rows)
	peak := 0
	for q := 0; q < 250; q++ {
		// Rotate through five report types every 50 queries.
		ti := workload.BatchCycle(q, 50, 5)
		bAttr := attrs[1+ti]
		cAttr := attrs[6+ti]
		_, _ = e.Query(crackstore.Query{
			Preds: []crackstore.AttrPred{
				{Attr: "key", Pred: gen.Range(0.02)},
				{Attr: bAttr, Pred: gen.Range(0.5)},
			},
			Projs: []string{cAttr},
		})
		if s := e.Storage(); s > peak {
			peak = s
		}
		if q%50 == 49 {
			fmt.Printf("after %3d queries (report type %d): %6d tuples of chunk storage\n",
				q+1, ti+1, e.Storage())
		}
	}
	fmt.Printf("\npeak chunk storage: %d tuples (budget %d) — never exceeded\n", peak, budget)
	if st := crackstore.PartialStore(e); st != nil {
		fmt.Printf("chunk map overhead (not budgeted, like a cracker column): %d tuples\n",
			st.ChunkMapTuples())
	}
}
