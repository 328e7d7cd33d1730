package exp

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestAdaptiveWorkloadsSmoke runs the policy-vs-pattern comparison at toy
// scale: every (pattern, policy) series exists with one sample per query,
// the sequential sweep is cheaper under the stochastic policy than under
// plain cracking (the artifact's headline claim, checked on the kernel's
// tuple count, which the seed fixes, not on wall-clock time, which it does
// not), and the emitted JSON is self-describing.
func TestAdaptiveWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Rows: 20000, Queries: 200, Seed: 1, W: io.Discard, JSONDir: dir}
	out := AdaptiveWorkloads(cfg)

	for _, pattern := range []string{"random", "sequential", "zoomin", "periodic"} {
		for _, pol := range []string{"default", "stochastic", "capped"} {
			s, ok := out[pattern+"/"+pol]
			if !ok {
				t.Fatalf("missing series %s/%s", pattern, pol)
			}
			if len(s.Y) != cfg.Queries {
				t.Fatalf("%s: %d samples, want %d", s.Name, len(s.Y), cfg.Queries)
			}
			if s.Policy != pol || s.Pattern != pattern {
				t.Fatalf("%s: metadata %q/%q not recorded", s.Name, s.Policy, s.Pattern)
			}
		}
	}
	if def, sto := out["sequential/default"].Visited, out["sequential/stochastic"].Visited; sto == 0 || sto >= def {
		t.Errorf("sequential sweep: stochastic classified %d tuples, not fewer than default's %d", sto, def)
	}

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_adaptive_workloads.json"))
	if err != nil {
		t.Fatalf("artifact missing: %v", err)
	}
	var doc struct {
		Title  string            `json:"title"`
		Meta   map[string]string `json:"meta"`
		Series []struct {
			Name    string `json:"name"`
			Policy  string `json:"policy"`
			Pattern string `json:"pattern"`
		} `json:"series"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if doc.Meta["rows"] != "20000" || doc.Meta["queries"] != "200" {
		t.Fatalf("artifact meta not self-describing: %v", doc.Meta)
	}
	if len(doc.Series) != 12 {
		t.Fatalf("artifact has %d series, want 12", len(doc.Series))
	}
	for _, s := range doc.Series {
		if s.Policy == "" || s.Pattern == "" {
			t.Fatalf("series %q lacks policy/pattern metadata", s.Name)
		}
	}
}
