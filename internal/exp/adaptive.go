package exp

import (
	"fmt"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/workload"
)

// AdaptiveWorkloads compares the adaptive cracking policies (default,
// stochastic, capped) across access patterns (random, sequential, zoomin,
// periodic — the shapes interactive exploration produces). For every
// (pattern, policy) pair it replays cfg.Queries single-attribute range
// queries against a fresh SelCrack engine over cfg.Rows uniform tuples and
// records per-query latencies.
//
// The point of the comparison: plain cracking only ever cracks at query
// bounds, so a sequential sweep or zoom-in leaves one huge uncracked piece
// that every query re-scans — cumulative cost degrades toward quadratic.
// The stochastic and capped policies pre-split oversized pieces at
// auxiliary pivots and stay near-linear on every pattern, at the price of
// a small constant overhead on patterns plain cracking already handles.
//
// With cfg.CSVDir set it writes every series to adaptive_workloads.csv, one
// "pattern/policy_us" column each. Returns the series keyed
// "pattern/policy".
func AdaptiveWorkloads(cfg Config) map[string]Series {
	patterns := workload.PatternNames()
	policies := []string{"default", "stochastic", "capped"}
	rel := buildUniform(cfg, "R", 2)
	// One sweep step per query: the sequential pattern covers the domain
	// exactly once, the worst case for plain cracking.
	frac := 1.0 / float64(cfg.Queries)

	out := make(map[string]Series, len(patterns)*len(policies))
	var series []Series
	for _, pattern := range patterns {
		gen, ok := workload.Pattern(pattern, frac)
		if !ok {
			panic(fmt.Sprintf("exp: unknown pattern %q", pattern))
		}
		for _, polName := range policies {
			kind, ok := crack.KindByName(polName)
			if !ok {
				panic(fmt.Sprintf("exp: unknown policy %q", polName))
			}
			pol := crack.Policy{Kind: kind, Seed: uint64(cfg.Seed)}
			e := engine.NewWith(engine.SelCrack, cloneRel(rel), engine.Options{Policy: pol})
			g := workload.New(int64(cfg.Rows), cfg.Seed+11)
			y := make([]time.Duration, cfg.Queries)
			for q := 0; q < cfg.Queries; q++ {
				query := engine.Query{Preds: []engine.AttrPred{{Attr: "A1", Pred: gen(g, q)}}}
				t0 := time.Now()
				e.Query(query)
				y[q] = time.Since(t0)
			}
			k, _ := engine.KernelReportOf(e)
			s := Series{Name: pattern + "/" + polName, Y: y, Visited: k.Visited}
			out[s.Name] = s
			series = append(series, s)
			cfg.logf("%-22s cumulative %v\n", s.Name, sumDur(y).Round(time.Microsecond))
		}
	}

	cum := func(name string) time.Duration { return sumDur(out[name].Y) }
	title := fmt.Sprintf(
		"Adaptive cracking policies across access patterns (%d rows, %d queries)", cfg.Rows, cfg.Queries)
	if d, s := cum("sequential/default"), cum("sequential/stochastic"); d > 0 && s > 0 {
		title += fmt.Sprintf(": sequential sweep %.1fx faster under stochastic (%v vs %v)",
			float64(d)/float64(s), s.Round(time.Microsecond), d.Round(time.Microsecond))
	}
	// Print the sampled table without the title-derived export; the CSV
	// keeps a fixed name so two runs can be diffed.
	printCfg := cfg
	printCfg.CSVDir = ""
	printSeries(printCfg, title, "query", series)
	cfg.reportExportError(cfg.csvSeries("adaptive_workloads", "query", series))
	return out
}
