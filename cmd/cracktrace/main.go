// Command cracktrace visualizes how sideways cracking self-organizes: it
// replays a random range workload over a small relation and, after selected
// queries, dumps the cracker map's piece structure (boundaries, piece
// sizes) and the map set's tape — the "knowledge" the system has learned
// so far.
//
// With -metrics addr it instead becomes a live monitor for a running
// crackserved: it polls the daemon's /metrics?format=json exposition and
// prints a delta report per interval — counters as per-second rates over
// the window, gauges as current values, histograms as count deltas with
// current p50/p99/max — suppressing families that did not move.
//
// Usage:
//
//	cracktrace -rows 1000 -queries 20 -sel 0.1
//	cracktrace -metrics localhost:9191 -interval 2s
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	crackstore "crackstore"
	"crackstore/internal/crackindex"
	"crackstore/internal/workload"
)

func main() {
	var (
		rows     = flag.Int("rows", 1000, "relation rows")
		queries  = flag.Int("queries", 20, "queries to replay")
		sel      = flag.Float64("sel", 0.1, "selectivity per query")
		seed     = flag.Int64("seed", 1, "seed")
		metrics  = flag.String("metrics", "", "watch a crackserved -metrics-addr endpoint at this host:port instead of running the local replay")
		interval = flag.Duration("interval", 2*time.Second, "metrics mode: polling interval")
		roundsN  = flag.Int("rounds", 0, "metrics mode: stop after this many delta reports (0 = run until interrupted)")
	)
	flag.Parse()

	if *metrics != "" {
		watchMetrics(*metrics, *interval, *roundsN)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	rel := crackstore.Build("R", *rows, []string{"A", "B"},
		func(string, int) crackstore.Value { return 1 + rng.Int63n(int64(*rows)) })
	e := crackstore.Open(crackstore.Sideways, rel)
	st := crackstore.SidewaysStore(e)
	if st == nil {
		fmt.Fprintln(os.Stderr, "internal error: not a sideways engine")
		os.Exit(1)
	}
	gen := workload.New(int64(*rows), *seed+1)

	for q := 1; q <= *queries; q++ {
		pred := gen.Range(*sel)
		res, cost := e.Query(crackstore.Query{
			Preds: []crackstore.AttrPred{{Attr: "A", Pred: pred}},
			Projs: []string{"B"},
		})
		fmt.Printf("\nquery %d: %v -> %d tuples in %v\n", q, pred, res.N, cost.Total())
		set := st.SetIfExists("A")
		if set == nil {
			continue
		}
		m := set.MapIfExists("B")
		if m == nil {
			continue
		}
		idx := m.Lead().Idx
		fmt.Printf("  map M_AB: %d tuples, %d pieces, tape cursor %d/%d\n",
			m.Len(), idx.Pieces(), m.Cursor(), set.TapeLen())
		if q == 1 || q == *queries || q%5 == 0 {
			fmt.Println("  piece structure:")
			prev := 0
			idx.Walk(func(b crackindex.Bound, pos int) {
				fmt.Printf("    [%6d, %6d)  %7d tuples  | next values %s\n",
					prev, pos, pos-prev, b)
				prev = pos
			})
			fmt.Printf("    [%6d, %6d)  %7d tuples\n", prev, m.Len(), m.Len()-prev)
		}
	}
	fmt.Printf("\nstorage used by maps: %d tuples\n", e.Storage())
}
