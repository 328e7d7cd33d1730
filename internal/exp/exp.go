// Package exp is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (Sections 3.6, 4.2 and 5). Each
// experiment builds its workload exactly as described in the paper, replays
// it against the relevant engines, and reports the same rows/series the
// paper plots. Sizes default to laptop scale; the cmd/crackbench and
// cmd/tpchbench tools expose paper-scale settings.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/presort"
	"crackstore/internal/rowstore"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// Value aliases the kernel value type.
type Value = store.Value

// Config controls experiment scale and output.
type Config struct {
	Rows    int   // base relation rows (paper: 1e7 for Section 3.6, 1e6 for 4.2)
	Queries int   // queries per sequence (paper: 100-1000)
	Seed    int64 // workload seed
	W       io.Writer
	// CSVDir, when non-empty, also writes each figure's full series as a
	// CSV file (one per panel) into this directory for plotting.
	CSVDir string
	// JSONDir, when non-empty, also writes each figure's per-query and
	// cumulative latency series as BENCH_<panel>.json into this directory,
	// giving later revisions a machine-readable perf trajectory to compare
	// against.
	JSONDir string
}

// Default returns a laptop-scale configuration.
func Default() Config {
	return Config{Rows: 100000, Queries: 100, Seed: 1, W: io.Discard}
}

// PaperScale returns the paper's sizes (minutes-long runs).
func PaperScale() Config {
	return Config{Rows: 10000000, Queries: 1000, Seed: 1, W: io.Discard}
}

func (c Config) writer() io.Writer {
	if c.W == nil {
		return io.Discard
	}
	return c.W
}

func (c Config) logf(format string, args ...any) {
	fmt.Fprintf(c.writer(), format, args...)
}

// buildUniform builds an nAttrs-column relation of cfg.Rows rows with
// uniform random integers in [1, cfg.Rows] (the paper's synthetic tables).
func buildUniform(cfg Config, name string, nAttrs int) *store.Relation {
	rng := rand.New(rand.NewSource(cfg.Seed))
	attrs := make([]string, nAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	return store.Build(name, cfg.Rows, attrs, func(string, int) Value {
		return 1 + Value(rng.Int63n(int64(cfg.Rows)))
	})
}

// design is one series of an experiment: a physical design, under the name
// it is printed as, built over a relation.
type design struct {
	name  string
	build func(*store.Relation) engine.Engine
}

// served is the design of one of the kinds the store serves.
func served(k engine.Kind) design {
	return design{k.String(), func(rel *store.Relation) engine.Engine { return engine.New(k, rel) }}
}

// The paper's yardsticks. The experiment that builds one runs its offline
// Prepare step and reports that cost apart.
var (
	presorted = design{"presorted", func(rel *store.Relation) engine.Engine { return presort.NewEngine(rel) }}
	rowStore  = design{"rowstore", func(rel *store.Relation) engine.Engine { return rowstore.NewEngine(rel) }}
)

func cloneRel(rel *store.Relation) *store.Relation {
	out := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		out.MustColumn(a).Vals = append([]Value(nil), rel.MustColumn(a).Vals...)
	}
	return out
}

// SamplePoints returns log-spaced indices 0-based in [0, n): 1,2,...,10,20,
// ...,100,200,... — the x-axes the paper uses for query sequences.
func SamplePoints(n int) []int {
	var out []int
	step := 1
	for i := 1; i <= n; i += step {
		out = append(out, i-1)
		if i >= 10*step {
			step *= 10
		}
	}
	if len(out) == 0 || out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// Series is one plotted line: per-query durations.
type Series struct {
	Name string
	Y    []time.Duration
	// Policy and Pattern, when set, record the adaptive cracking policy
	// and the access pattern behind this series; they are emitted into the
	// BENCH_*.json line so the artifact is self-describing.
	Policy  string
	Pattern string
	// Visited, when set, counts the tuples the crack kernel classified over
	// the series: the work Y times, counted instead, so it is deterministic
	// under the seed.
	Visited uint64
}

// printSeries prints sampled points of several aligned series and, when
// CSVDir is set, exports the full series as CSV.
func printSeries(cfg Config, title string, xlabel string, series []Series) {
	cfg.reportExportError(cfg.csvSeries(sanitize(title), xlabel, series))
	cfg.reportExportError(cfg.jsonSeries(sanitize(title), title, xlabel, nil, series))
	cfg.logf("\n== %s ==\n", title)
	cfg.logf("%-10s", xlabel)
	for _, s := range series {
		cfg.logf("%18s", s.Name)
	}
	cfg.logf("\n")
	if len(series) == 0 || len(series[0].Y) == 0 {
		return
	}
	for _, i := range SamplePoints(len(series[0].Y)) {
		cfg.logf("%-10d", i+1)
		for _, s := range series {
			cfg.logf("%18s", fmtDur(s.Y[i]))
		}
		cfg.logf("\n")
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dus", d.Microseconds())
	}
}

// sumDur totals a series.
func sumDur(y []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range y {
		t += d
	}
	return t
}

// medianTail returns the median of the last k entries (converged cost).
func medianTail(y []time.Duration, k int) time.Duration {
	if len(y) == 0 {
		return 0
	}
	if k > len(y) {
		k = len(y)
	}
	tail := append([]time.Duration(nil), y[len(y)-k:]...)
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j] < tail[j-1]; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return tail[len(tail)/2]
}

// runMaxQuery runs one q1/q3-style aggregation query and returns its cost.
func runMaxQuery(e engine.Engine, preds []engine.AttrPred, projs []string) engine.Cost {
	t0 := time.Now()
	res, cost := e.Query(engine.Query{Preds: preds, Projs: projs})
	engine.MaxPerProj(res, projs)
	total := time.Since(t0)
	// Attribute the aggregation time to TR (it iterates reconstructed
	// columns), keeping Sel as reported.
	cost.TR = total - cost.Sel
	return cost
}

// genFor returns a workload generator over the value domain of cfg.
func genFor(cfg Config, seedOffset int64) *workload.Gen {
	return workload.New(int64(cfg.Rows), cfg.Seed+seedOffset)
}
