package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
)

func loadSummaries(paths []string) ([]*summary, error) {
	var out []*summary
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s summary
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &s)
	}
	return out, nil
}

// comparable reports why two summaries must not be set side by side: runs
// differ in what they measured when any of these differ.
func comparable(a, b env) error {
	switch {
	case a.Rows != b.Rows:
		return fmt.Errorf("rows differ: %d vs %d", a.Rows, b.Rows)
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Smoke != b.Smoke || a.Trace != b.Trace:
		return fmt.Errorf("run lengths differ: seconds %g/%g smoke %v/%v trace %v/%v",
			a.Seconds, b.Seconds, a.Smoke, b.Smoke, a.Trace, b.Trace)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differ: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case !reflect.DeepEqual(a.Episodes, b.Episodes):
		return fmt.Errorf("episode constants differ: %v vs %v", a.Episodes, b.Episodes)
	}
	return nil
}

// series collects one metric's value on one workload from every summary
// that has it.
func series(sums []*summary, workload, metric string) (vals []float64) {
	for _, s := range sums {
		for _, w := range s.Workloads {
			if v, ok := w.EndToEnd[metric]; ok && w.Workload == workload {
				vals = append(vals, v.Value)
			}
		}
	}
	return vals
}

// runCompare prints one row per (workload, end-to-end metric) both sides
// measured and returns 1 if any row is a regression or unresolved. Rows of
// demoted metrics are printed and marked, and do not count.
func runCompare(basePaths, candPaths []string, stdout, stderr io.Writer) int {
	base, err := loadSummaries(basePaths)
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("no baseline summaries")
	}
	var cand []*summary
	if err == nil {
		cand, err = loadSummaries(candPaths)
	}
	if err == nil {
		for _, s := range slices.Concat(base[1:], cand) {
			if err = comparable(base[0].Env, s.Env); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "baseline: %d runs at %s; candidate: %d runs at %s\n",
		len(base), base[0].Env.Commit, len(cand), cand[0].Env.Commit)
	fmt.Fprintf(stdout, "%-15s %-19s %-6s %36s %36s %9s %7s %7s  %s\n",
		"workload", "metric", "unit", "baseline q1/median/q3", "candidate q1/median/q3", "cand/base", "spread", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			bv, cv := series(base, w.Name, m.Name), series(cand, w.Name, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			v, _, widest := verdict(bv, cv, m.Better, m.Bound)
			b1, b2, b3 := quartiles(bv)
			c1, c2, c3 := quartiles(cv)
			ratio := 1.0
			if b2 != 0 {
				ratio = c2 / b2
			}
			if m.demoted(w.Name) {
				v += " (demoted)"
			} else if v != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-15s %-19s %-6s %11.4g/%11.4g/%11.4g %11.4g/%11.4g/%11.4g %9.4f %7.4f %7.2f  %s\n",
				w.Name, m.Name, m.Unit, b1, b2, b3, c1, c2, c3, ratio, widest, m.Bound, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows are not ok\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every row ok: candidate within the bounds of the baseline")
	return 0
}
