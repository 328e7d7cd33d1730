// Command crackbench regenerates the synthetic experiments of the paper's
// Sections 3.6 and 4.2: Exp1-Exp6 (Figures 4-7 and the cost-breakdown
// table) and the partial-map experiments (Figures 9-13), plus the
// adaptive-policy comparison.
//
// Usage:
//
//	crackbench -exp exp1            # one experiment at default scale
//	crackbench -exp all             # everything
//	crackbench -exp fig9 -rows 1000000 -queries 1000   # paper scale
//	crackbench -exp exp2 -scale paper
//	crackbench -exp exp1 -csv out                      # full series as CSV
//	crackbench -exp adaptive -queries 1000             # policies x access patterns
//
// Experiment ids: exp1 exp2 exp3 exp4 exp5 exp6 fig9 fig10 fig11 fig12
// fig13 adaptive all. Sizes default to a laptop-friendly scale;
// -scale paper uses the paper's sizes (expect minutes per experiment).
//
// -exp adaptive replays, for every (access pattern, cracking policy) pair,
// a range-query stream against a fresh cracking engine. Sequential sweeps
// and zoom-ins degrade plain cracking toward quadratic total work; the
// stochastic and capped policies pre-split oversized pieces and stay
// near-linear.
//
// Serving, remote, chaos, snapshot and durability measurements are not
// here: `bash benchmark/run.sh` is the one driver for those (see
// benchmark/README.md), and the crackserved daemon is exercised end to
// end by `go test ./cmd/crackserved`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"crackstore/internal/exp"
	"crackstore/internal/workload"
)

// minRows is the smallest relation every experiment measures something
// on: below it Exp3's 20% intermediate result is empty.
const minRows = 5

func main() {
	var (
		expID   = flag.String("exp", "all", "experiment id (exp1..exp6, fig9..fig13, adaptive, all)")
		rows    = flag.Int("rows", 0, fmt.Sprintf("base relation rows (0 = scale default, else >= %d)", minRows))
		queries = flag.Int("queries", 0, "queries per sequence (0 = scale default)")
		seed    = flag.Int64("seed", 1, "workload seed")
		scale   = flag.String("scale", "default", "default | paper")
		csvDir  = flag.String("csv", "", "also write full series as CSV files into this directory")
	)
	flag.Parse()
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *rows != 0 && *rows < minRows {
		usage("-rows %d out of range: 0 (scale default) or >= %d", *rows, minRows)
	}
	if *queries < 0 {
		usage("-queries %d out of range: 0 (scale default) or >= 1", *queries)
	}

	cfg := exp.Default()
	if *scale == "paper" {
		cfg = exp.PaperScale()
	}
	cfg.Seed = *seed
	cfg.W = os.Stdout
	if *rows > 0 {
		cfg.Rows = *rows
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	cfg.CSVDir = *csvDir

	// The Section 4.2 experiments use a 10x smaller relation than the
	// Section 3.6 ones in the paper (1e6 vs 1e7); mirror that ratio unless
	// rows were given explicitly.
	partialCfg := cfg
	if *rows == 0 {
		partialCfg.Rows = cfg.Rows / 2
	}

	known := *expID == "all"
	run := func(id string, f func()) {
		if *expID != "all" && *expID != id {
			return
		}
		known = true
		// Collect garbage from earlier experiments so their allocations do
		// not pollute this experiment's timings.
		runtime.GC()
		t0 := time.Now()
		f()
		fmt.Printf("\n[%s completed in %v]\n", id, time.Since(t0).Round(time.Millisecond))
	}

	run("exp1", func() { exp.Exp1(cfg) })
	run("exp2", func() { exp.Exp2(cfg) })
	run("exp3", func() { exp.Exp3(cfg) })
	run("exp4", func() { exp.Exp4(cfg) })
	run("exp5", func() { exp.Exp5(cfg) })
	run("exp6", func() {
		hf := workload.HFLV
		lf := workload.LFHV
		if cfg.Queries < lf.Frequency {
			lf.Frequency = cfg.Queries / 2
			lf.Volume = cfg.Queries / 2
		}
		exp.Exp6(cfg, lf)
		exp.Exp6(cfg, hf)
	})
	run("fig9", func() { exp.Fig9(partialCfg) })
	run("fig10", func() { exp.Fig10(partialCfg) })
	run("fig11", func() { exp.Fig11(partialCfg) })
	run("fig12", func() { exp.Fig12(partialCfg) })
	run("fig13", func() { exp.Fig13(partialCfg) })
	run("adaptive", func() { exp.AdaptiveWorkloads(cfg) })

	if !known {
		usage("unknown experiment %q", *expID)
	}
}
