package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// benchSeriesJSON is the machine-readable form of one figure panel, written
// as BENCH_<stem>.json when Config.JSONDir is set. Cumulative latencies give
// future PRs a perf trajectory to diff against: cumulative_us[i] is the
// total cost of answering queries 1..i+1.
type benchSeriesJSON struct {
	Title  string            `json:"title"`
	XLabel string            `json:"xlabel"`
	Meta   map[string]string `json:"meta,omitempty"`
	Series []benchLineJSON   `json:"series"`
}

type benchLineJSON struct {
	Name         string  `json:"name"`
	Policy       string  `json:"policy,omitempty"`
	Pattern      string  `json:"pattern,omitempty"`
	PerQueryUs   []int64 `json:"per_query_us"`
	CumulativeUs []int64 `json:"cumulative_us"`
}

// jsonSeries writes the full per-query and cumulative latency series of one
// figure panel as BENCH_<name>.json into Config.JSONDir.
func (c Config) jsonSeries(name, title, xlabel string, meta map[string]string, series []Series) error {
	if c.JSONDir == "" || len(series) == 0 {
		return nil
	}
	if err := os.MkdirAll(c.JSONDir, 0o755); err != nil {
		return err
	}
	doc := benchSeriesJSON{Title: title, XLabel: xlabel, Meta: meta}
	for _, s := range series {
		line := benchLineJSON{
			Name:         s.Name,
			Policy:       s.Policy,
			Pattern:      s.Pattern,
			PerQueryUs:   make([]int64, len(s.Y)),
			CumulativeUs: make([]int64, len(s.Y)),
		}
		var cum time.Duration
		for i, d := range s.Y {
			cum += d
			line.PerQueryUs[i] = d.Microseconds()
			line.CumulativeUs[i] = cum.Microseconds()
		}
		doc.Series = append(doc.Series, line)
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(filepath.Join(c.JSONDir, "BENCH_"+name+".json"), data, 0o644)
}
