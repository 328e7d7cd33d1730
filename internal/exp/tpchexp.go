package exp

import (
	"fmt"
	"math/rand"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/tpch"
)

// Fig14Result reproduces Figure 14 (per-query TPC-H sequences) and the
// Section 5 improvement table.
type Fig14Result struct {
	SF       float64
	Runs     int
	QueryIDs []int
	// Series[qid][engine] = per-run durations across the parameter
	// variations.
	Series map[int]map[string][]time.Duration
	// PrepCost[qid] = presorting cost for the presorted engine.
	PrepCost map[int]time.Duration
	// Improvement[qid][engine] = percent improvement of the sequence total
	// versus the plain scan engine (positive = faster).
	Improvement map[int]map[string]float64
}

// fig14Designs are the series of Figure 14; the first is the plain scan
// every improvement is relative to.
var fig14Designs = []design{served(engine.Scan), served(engine.SelCrack), served(engine.Sideways),
	presorted, rowStore}

// Fig14 runs each of the paper's twelve TPC-H queries as a sequence of
// parameter variations per engine kind.
func Fig14(cfg Config, sf float64, runs int) *Fig14Result {
	data := tpch.Generate(sf, cfg.Seed)
	res := &Fig14Result{
		SF: sf, Runs: runs, QueryIDs: tpch.QueryIDs,
		Series:      map[int]map[string][]time.Duration{},
		PrepCost:    map[int]time.Duration{},
		Improvement: map[int]map[string]float64{},
	}
	for _, qid := range tpch.QueryIDs {
		res.Series[qid] = map[string][]time.Duration{}
		fn := tpch.Queries[qid]
		prng := rand.New(rand.NewSource(cfg.Seed + int64(qid)))
		params := make([]tpch.Params, runs)
		for i := range params {
			params[i] = tpch.RandomParams(prng)
		}
		for _, d := range fig14Designs {
			db := tpch.NewDB(data, d.build)
			if prep := db.Prepare(qid); d.name == presorted.name {
				res.PrepCost[qid] = prep
			}
			name := d.name
			for _, p := range params {
				t0 := time.Now()
				fn(db, p)
				res.Series[qid][name] = append(res.Series[qid][name], time.Since(t0))
			}
		}
		scanTotal := sumDur(res.Series[qid][fig14Designs[0].name])
		res.Improvement[qid] = map[string]float64{}
		for _, d := range fig14Designs[1:] {
			total := sumDur(res.Series[qid][d.name])
			if scanTotal > 0 {
				res.Improvement[qid][d.name] =
					100 * (1 - float64(total)/float64(scanTotal))
			}
		}
		var series []Series
		for _, d := range fig14Designs {
			series = append(series, Series{Name: d.name, Y: res.Series[qid][d.name]})
		}
		printSeries(cfg, fmt.Sprintf("Fig 14: TPC-H Query %d (SF=%g)", qid, sf), "run", series)
		cfg.logf("(presorting cost for Q%d: %s)\n", qid, fmtDur(res.PrepCost[qid]))
	}
	cfg.logf("\n== Section 5 table: improvement over plain scan (sequence totals) ==\n")
	cfg.logf("%-6s%12s%12s\n", "Q", "SiCr%", "PrMo%")
	for _, qid := range tpch.QueryIDs {
		cfg.logf("%-6d%11.0f%%%11.0f%%\n", qid,
			res.Improvement[qid][engine.Sideways.String()],
			res.Improvement[qid][presorted.name])
	}
	return res
}

// MixedResult reproduces the Section 5 closing figure: five sequential
// batches of all twelve queries, sideways cracking relative to the plain
// engine, with map reuse across different queries.
type MixedResult struct {
	Batches int
	// Relative[i] = sideways / scan for the i-th query execution.
	Relative []float64
	QueryIDs []int
}

// Mixed runs batches of the twelve TPC-H queries with varying parameters
// on persistent sideways and scan databases.
func Mixed(cfg Config, sf float64, batches int) *MixedResult {
	data := tpch.Generate(sf, cfg.Seed)
	scanDB := tpch.NewDB(data, served(engine.Scan).build)
	sideDB := tpch.NewDB(data, served(engine.Sideways).build)
	prng := rand.New(rand.NewSource(cfg.Seed + 77))
	res := &MixedResult{Batches: batches}
	for b := 0; b < batches; b++ {
		for _, qid := range tpch.QueryIDs {
			p := tpch.RandomParams(prng)
			fn := tpch.Queries[qid]
			t0 := time.Now()
			fn(scanDB, p)
			scanD := time.Since(t0)
			t0 = time.Now()
			fn(sideDB, p)
			sideD := time.Since(t0)
			rel := 0.0
			if scanD > 0 {
				rel = float64(sideD) / float64(scanD)
			}
			res.Relative = append(res.Relative, rel)
			res.QueryIDs = append(res.QueryIDs, qid)
		}
	}
	cfg.logf("\n== Mixed TPC-H workload: sideways relative to plain scan ==\n")
	cfg.logf("%-6s%-6s%10s\n", "seq", "query", "relative")
	for i, rel := range res.Relative {
		cfg.logf("%-6d%-6d%10.3f\n", i+1, res.QueryIDs[i], rel)
	}
	return res
}
