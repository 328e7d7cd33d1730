package exp

import (
	"fmt"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/workload"
)

// The Section 4.2 experiments use an 11-attribute relation and five query
// types Qi: select Ci from R where v1<A<v2 and v3<Bi<v4, all sharing the
// selection attribute A (=A1) but using different Bi (=A2..A6) and Ci
// (=A7..A11), i.e. each query type requires two different maps.
func partialQueryType(i int) (bAttr, cAttr string) {
	return fmt.Sprintf("A%d", 2+i), fmt.Sprintf("A%d", 7+i)
}

// PartialRun is one engine's trace through a Section 4.2 workload.
type PartialRun struct {
	Name    string
	PerQ    []time.Duration
	Storage []int // map/chunk tuples after each query
}

// partialWorkload replays the batch-cycling workload against one engine.
//   - resultFrac: the A-range width as a fraction of the domain (S tuples)
//   - batchLen: queries per batch before the query type changes
//   - nTypes: number of query types cycled
//   - skew: if true, 9/10 of the A ranges fall in the first 20% of the
//     domain (Figure 10(b))
func partialWorkload(cfg Config, e engine.Engine, resultFrac float64,
	batchLen, nTypes int, skew bool) PartialRun {

	gen := genFor(cfg, 700)
	run := PartialRun{Name: e.Kind().String()}
	for q := 0; q < cfg.Queries; q++ {
		ti := workload.BatchCycle(q, batchLen, nTypes)
		bAttr, cAttr := partialQueryType(ti)
		var predA = gen.Range(resultFrac)
		if skew {
			predA = gen.Skewed(resultFrac, 0.2, 0.9)
		}
		predB := gen.Range(0.5)
		t0 := time.Now()
		e.Query(engine.Query{
			Preds: []engine.AttrPred{
				{Attr: "A1", Pred: predA},
				{Attr: bAttr, Pred: predB},
			},
			Projs: []string{cAttr},
		})
		run.PerQ = append(run.PerQ, time.Since(t0))
		run.Storage = append(run.Storage, e.Storage())
	}
	return run
}

func newBudgeted(full bool, cfg Config, budget int) engine.Engine {
	kind := engine.PartialSideways
	if full {
		kind = engine.Sideways
	}
	return engine.NewWith(kind, buildUniform(cfg, "R", 11), engine.Options{Budget: budget})
}

// Fig9Result reproduces Figure 9: full vs partial maps under storage
// thresholds T ∈ {unlimited, 6.5x, 2x base rows}.
type Fig9Result struct {
	Budgets []int // 0 = unlimited
	// Runs[i] = {full, partial} for Budgets[i].
	Runs [][2]PartialRun
}

// Fig9 runs 5 query types in batches with S = 1% of the rows.
func Fig9(cfg Config) *Fig9Result {
	res := &Fig9Result{Budgets: []int{0, int(6.5 * float64(cfg.Rows)), 2 * cfg.Rows}}
	batchLen := cfg.Queries / 10
	if batchLen < 1 {
		batchLen = 1
	}
	for _, budget := range res.Budgets {
		full := partialWorkload(cfg, newBudgeted(true, cfg, budget), 0.01, batchLen, 5, false)
		full.Name = "full maps"
		part := partialWorkload(cfg, newBudgeted(false, cfg, budget), 0.01, batchLen, 5, false)
		part.Name = "partial maps"
		res.Runs = append(res.Runs, [2]PartialRun{full, part})
	}
	labels := []string{"(a) unlimited storage", "(b) T=6.5x rows", "(c) T=2x rows"}
	for i, pair := range res.Runs {
		printSeries(cfg, "Fig 9"+labels[i], "query",
			[]Series{{Name: pair[0].Name, Y: pair[0].PerQ}, {Name: pair[1].Name, Y: pair[1].PerQ}})
	}
	storageRuns := map[string][]int{}
	for i := range res.Runs {
		storageRuns["full"+budgetTag(res.Budgets[i])] = res.Runs[i][0].Storage
		storageRuns["part"+budgetTag(res.Budgets[i])] = res.Runs[i][1].Storage
	}
	cfg.reportExportError(cfg.csvStorage("fig9d_storage", storageRuns))
	cfg.logf("\n== Fig 9(d): storage used (tuples) ==\n")
	cfg.logf("%-8s", "query")
	for i := range res.Runs {
		cfg.logf("%14s%14s", "full"+budgetTag(res.Budgets[i]), "part"+budgetTag(res.Budgets[i]))
	}
	cfg.logf("\n")
	for _, q := range SamplePoints(cfg.Queries) {
		cfg.logf("%-8d", q+1)
		for i := range res.Runs {
			cfg.logf("%14d%14d", res.Runs[i][0].Storage[q], res.Runs[i][1].Storage[q])
		}
		cfg.logf("\n")
	}
	return res
}

func budgetTag(b int) string {
	if b == 0 {
		return "/noT"
	}
	return fmt.Sprintf("/T=%dk", b/1000)
}

// Fig10Result reproduces Figure 10: adaptation to selective and skewed
// workloads under T = 6.5x rows.
type Fig10Result struct {
	// Uniform1K: S = 0.1% uniform; Skewed10K: S = 1% skewed.
	Uniform1K, Skewed10K [2]PartialRun
}

// Fig10 reruns the basic experiment with higher selectivity and with skew.
func Fig10(cfg Config) *Fig10Result {
	budget := int(6.5 * float64(cfg.Rows))
	batchLen := cfg.Queries / 10
	if batchLen < 1 {
		batchLen = 1
	}
	res := &Fig10Result{}
	for i, sc := range []struct {
		frac float64
		skew bool
	}{{0.001, false}, {0.01, true}} {
		full := partialWorkload(cfg, newBudgeted(true, cfg, budget), sc.frac, batchLen, 5, sc.skew)
		full.Name = "full maps"
		part := partialWorkload(cfg, newBudgeted(false, cfg, budget), sc.frac, batchLen, 5, sc.skew)
		part.Name = "partial maps"
		if i == 0 {
			res.Uniform1K = [2]PartialRun{full, part}
		} else {
			res.Skewed10K = [2]PartialRun{full, part}
		}
	}
	printSeries(cfg, "Fig 10(a): random, S=0.1% of rows", "query",
		[]Series{{Name: "full maps", Y: res.Uniform1K[0].PerQ}, {Name: "partial maps", Y: res.Uniform1K[1].PerQ}})
	printSeries(cfg, "Fig 10(b): skewed, S=1% of rows", "query",
		[]Series{{Name: "full maps", Y: res.Skewed10K[0].PerQ}, {Name: "partial maps", Y: res.Skewed10K[1].PerQ}})
	cfg.reportExportError(cfg.csvStorage("fig10c_storage", map[string][]int{
		"full_rand1k":  res.Uniform1K[0].Storage,
		"part_rand1k":  res.Uniform1K[1].Storage,
		"full_skew10k": res.Skewed10K[0].Storage,
		"part_skew10k": res.Skewed10K[1].Storage,
	}))
	cfg.logf("\n== Fig 10(c): storage used (tuples) ==\n")
	cfg.logf("%-8s%14s%14s%14s%14s\n", "query", "F/rand1K", "P/rand1K", "F/skew10K", "P/skew10K")
	for _, q := range SamplePoints(cfg.Queries) {
		cfg.logf("%-8d%14d%14d%14d%14d\n", q+1,
			res.Uniform1K[0].Storage[q], res.Uniform1K[1].Storage[q],
			res.Skewed10K[0].Storage[q], res.Skewed10K[1].Storage[q])
	}
	return res
}

// Fig11Result reproduces Figure 11: total cost of the whole query sequence
// varying result size and storage threshold.
type Fig11Result struct {
	Fracs   []float64
	Budgets []int
	// Total[fi][bi] = {full, partial} cumulative cost.
	Total [][][2]time.Duration
}

// Fig11 shows partial maps add no overhead in sequence totals.
func Fig11(cfg Config) *Fig11Result {
	res := &Fig11Result{
		Fracs:   []float64{0.001, 0.01, 0.1, 0.3},
		Budgets: []int{0, int(6.5 * float64(cfg.Rows)), 2 * cfg.Rows},
	}
	batchLen := cfg.Queries / 10
	if batchLen < 1 {
		batchLen = 1
	}
	for _, frac := range res.Fracs {
		var perBudget [][2]time.Duration
		for _, budget := range res.Budgets {
			full := partialWorkload(cfg, newBudgeted(true, cfg, budget), frac, batchLen, 5, false)
			part := partialWorkload(cfg, newBudgeted(false, cfg, budget), frac, batchLen, 5, false)
			perBudget = append(perBudget, [2]time.Duration{sumDur(full.PerQ), sumDur(part.PerQ)})
		}
		res.Total = append(res.Total, perBudget)
	}
	cfg.logf("\n== Fig 11: total cumulative cost (%d queries) ==\n", cfg.Queries)
	cfg.logf("%-10s", "S/rows")
	for _, b := range res.Budgets {
		cfg.logf("%14s%14s", "full"+budgetTag(b), "part"+budgetTag(b))
	}
	cfg.logf("\n")
	for fi, frac := range res.Fracs {
		cfg.logf("%-10.3f", frac)
		for bi := range res.Budgets {
			cfg.logf("%14s%14s", fmtDur(res.Total[fi][bi][0]), fmtDur(res.Total[fi][bi][1]))
		}
		cfg.logf("\n")
	}
	return res
}

// Fig12Result reproduces Figure 12: total cost versus workload change rate.
type Fig12Result struct {
	Changes []int // workload changes per sequence
	Full    []time.Duration
	Partial []time.Duration
}

// Fig12 varies how often the query type changes under T = 6x rows.
func Fig12(cfg Config) *Fig12Result {
	res := &Fig12Result{}
	budget := 6 * cfg.Rows
	for _, changes := range []int{5, 10, 50, 100, 500, 1000} {
		if changes > cfg.Queries {
			break
		}
		batchLen := cfg.Queries / changes
		if batchLen < 1 {
			batchLen = 1
		}
		full := partialWorkload(cfg, newBudgeted(true, cfg, budget), 0.01, batchLen, 5, false)
		part := partialWorkload(cfg, newBudgeted(false, cfg, budget), 0.01, batchLen, 5, false)
		res.Changes = append(res.Changes, changes)
		res.Full = append(res.Full, sumDur(full.PerQ))
		res.Partial = append(res.Partial, sumDur(part.PerQ))
	}
	cfg.logf("\n== Fig 12: total cost vs workload change rate (%d queries) ==\n", cfg.Queries)
	cfg.logf("%-10s%14s%14s\n", "changes", "full", "partial")
	for i, c := range res.Changes {
		cfg.logf("%-10d%14s%14s\n", c, fmtDur(res.Full[i]), fmtDur(res.Partial[i]))
	}
	return res
}

// Fig13Result reproduces Figure 13: alignment cost when switching between
// two query types at different rates, with unlimited storage.
type Fig13Result struct {
	BatchLens []int
	// Runs[i] = {full, partial} for BatchLens[i].
	Runs [][2]PartialRun
}

// Fig13 isolates the alignment cost: two query types, no threshold.
func Fig13(cfg Config) *Fig13Result {
	res := &Fig13Result{}
	for _, batchLen := range []int{cfg.Queries / 100, cfg.Queries / 10, cfg.Queries / 5} {
		if batchLen < 1 {
			batchLen = 1
		}
		full := partialWorkload(cfg, newBudgeted(true, cfg, 0), 0.01, batchLen, 2, false)
		full.Name = "full maps"
		part := partialWorkload(cfg, newBudgeted(false, cfg, 0), 0.01, batchLen, 2, false)
		part.Name = "partial maps"
		res.BatchLens = append(res.BatchLens, batchLen)
		res.Runs = append(res.Runs, [2]PartialRun{full, part})
	}
	for i, pair := range res.Runs {
		printSeries(cfg, fmt.Sprintf("Fig 13: change workload every %d queries", res.BatchLens[i]),
			"query", []Series{{Name: pair[0].Name, Y: pair[0].PerQ}, {Name: pair[1].Name, Y: pair[1].PerQ}})
	}
	return res
}
