package exp

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestAdaptiveWorkloadsSmoke runs the policy-vs-pattern comparison at toy
// scale: every (pattern, policy) series exists with one sample per query,
// the sequential sweep is cheaper under the stochastic policy than under
// plain cracking (the artifact's headline claim, checked on the kernel's
// tuple count, which the seed fixes, not on wall-clock time, which it does
// not), and the CSV holds every series in full.
func TestAdaptiveWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Rows: 20000, Queries: 200, Seed: 1, W: io.Discard, CSVDir: dir}
	out := AdaptiveWorkloads(cfg)

	header := []string{"query"}
	for _, pattern := range []string{"random", "sequential", "zoomin", "periodic"} {
		for _, pol := range []string{"default", "stochastic", "capped"} {
			s, ok := out[pattern+"/"+pol]
			if !ok {
				t.Fatalf("missing series %s/%s", pattern, pol)
			}
			if len(s.Y) != cfg.Queries {
				t.Fatalf("%s: %d samples, want %d", s.Name, len(s.Y), cfg.Queries)
			}
			header = append(header, s.Name+"_us")
		}
	}
	if def, sto := out["sequential/default"].Visited, out["sequential/stochastic"].Visited; sto == 0 || sto >= def {
		t.Errorf("sequential sweep: stochastic classified %d tuples, not fewer than default's %d", sto, def)
	}

	f, err := os.Open(filepath.Join(dir, "adaptive_workloads.csv"))
	if err != nil {
		t.Fatalf("CSV missing: %v", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("CSV not readable: %v", err)
	}
	if len(rows) != cfg.Queries+1 || !slices.Equal(rows[0], header) {
		t.Fatalf("CSV has %d rows headed %v, want %d headed %v", len(rows), rows[0], cfg.Queries+1, header)
	}
}
