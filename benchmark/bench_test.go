package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke runs the suite (workload "") or one workload at self-test scale
// and returns its summary.
func smoke(t *testing.T, seed, workload string, traced bool) *summary {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "summary.json")
	args := []string{"-smoke", "-seed", seed, "-json", out,
		"-data-dir", filepath.Join(dir, "data"), "-trace-out", filepath.Join(dir, "trace.jsonl")}
	if traced {
		args = append(args, "-trace", "1")
	}
	if workload != "" {
		args = append(args, "-workload", workload)
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(dir, "trace.jsonl")); traced && (err != nil || info.Size() == 0) {
		t.Errorf("traced run of %q wrote no spans: %v", workload, err)
	}
	return &sum
}

func (s *summary) workload(t *testing.T, name string) *result {
	t.Helper()
	var found *result
	for _, w := range s.Workloads {
		if w.Workload == name {
			if found != nil {
				t.Fatalf("workload %s emitted twice", name)
			}
			found = w
		}
	}
	if found == nil {
		t.Fatalf("workload %s not emitted", name)
	}
	return found
}

// TestContractMatchesSpec keeps BENCHMARK.json and spec.go in step.
func TestContractMatchesSpec(t *testing.T) {
	c := loadContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var listed []workloadSpec
	for _, w := range workloads {
		if w.Listed {
			listed = append(listed, w)
		}
	}
	if len(c.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go marks %d as listed", len(c.Workloads), len(listed))
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != listed[i].Name || w.Why != listed[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, w.Name, listed[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var gated []metricSpec
	for _, m := range endToEnd {
		if m.Gated {
			gated = append(gated, m)
		}
	}
	if len(c.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, spec.go gates %d", len(c.EndToEnd), len(gated))
	}
	hasSetup := false
	for i, m := range c.EndToEnd {
		unique(m.Name)
		g := gated[i]
		if m.Name != g.Name || m.Unit != g.Unit || m.Better != g.Better || m.Bound != g.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, m, g)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if g.On != nil {
			t.Errorf("%s is gated but not reported on every workload", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, spec.go %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		unique(m.Name)
		p := perLayer[i]
		if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, m, p)
		}
	}
	for _, m := range endToEnd {
		if !m.Gated && !seen[m.Name] {
			unique(m.Name)
		}
	}
	if c.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, episode constants calibrated for %d", c.RunSeconds, refSeconds)
	}
}

// TestSuite runs every workload at smoke scale and asserts only on what
// cannot flake: names, units, presence and exact counts. No time is
// compared with anything.
func TestSuite(t *testing.T) {
	c := loadContract(t)
	a := smoke(t, "1", "", true)
	if len(a.Workloads) != len(workloads) {
		t.Fatalf("%d workloads emitted, spec.go registers %d", len(a.Workloads), len(workloads))
	}
	for _, w := range workloads {
		r := a.workload(t, w.Name)
		if r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, r.Attempted, r.Failed, r.Faults)
		}
		for _, m := range c.EndToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s missing or in %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
			}
			if v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %v; a gated metric is never 0", w.Name, m.Name, v.Value)
			}
		}
		for _, m := range c.PerLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s missing or in %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %v", w.Name, m.Name, v.Value)
			}
		}
		for _, m := range endToEnd {
			if _, ok := r.EndToEnd[m.Name]; ok && !m.on(w.Name) {
				t.Errorf("%s reports %s, which spec.go does not list for it", w.Name, m.Name)
			}
		}
		for traced, want := range map[bool]int{false: len(c.EndToEnd), true: len(c.PerLayer)} {
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(r.contractLine(traced)), &line); err != nil || len(line.Metrics) != want || !line.Correct {
				t.Errorf("%s: result line (traced=%v) %v carries %d metrics, want %d", w.Name, traced, err, len(line.Metrics), want)
			}
		}
	}

	// The workloads separate the layers.
	layer := func(s *summary, w, m string) float64 { return s.workload(t, w).PerLayer[m].Value }
	for _, w := range []string{wServeWarm, wRemoteWarm} {
		if v := layer(a, w, "crack.visited_per_query"); v != 0 {
			t.Errorf("%s: kernel visited %g tuples per query on a warm pool, want 0", w, v)
		}
		if v := layer(a, w, "sideways.ro_hit_frac"); v != 1 {
			t.Errorf("%s: read-only hit fraction %g, want 1", w, v)
		}
	}
	for _, w := range []string{wExploreCold, wExploreBudget, wUpdateMix} {
		if v := layer(a, w, "crack.visited_per_query"); v <= 0 {
			t.Errorf("%s: kernel visited %g tuples per query, want > 0", w, v)
		}
	}
	for _, w := range workloads {
		if w.Name != wRemoteWarm && layer(a, w.Name, "wire.resp_bytes_per_query") != 0 {
			t.Errorf("%s: in-process workload moved bytes over the wire", w.Name)
		}
		if w.Name != wDurableChurn && layer(a, w.Name, "wal.fsyncs_per_write") != 0 {
			t.Errorf("%s: fsyncs outside durable-churn", w.Name)
		}
	}
	if layer(a, wExploreBudget, "sideways.maps") != 0 || layer(a, wExploreCold, "partial.areas") != 0 {
		t.Error("explore-cold and explore-budget share a map layer")
	}

	// Counts repeat exactly under one seed and move under another.
	// (explore-budget is left out: the partial store breaks eviction ties in
	// map iteration order, so its counts wobble in the fourth digit.)
	// Only the wire's byte count needs the ledger, so only remote-warm
	// repeats traced.
	exact := []struct {
		workload, metric string
		traced           bool
	}{
		{wExploreCold, "crack.visited_per_query", false},
		{wUpdateMix, "aux_tuples_per_row", false},
		{wRemoteWarm, "wire.resp_bytes_per_query", true},
		{wDurableChurn, "wal.bytes_per_write", false},
	}
	get := func(s *summary, w, m string) float64 {
		r := s.workload(t, w)
		if v, ok := r.EndToEnd[m]; ok {
			return v.Value
		}
		return r.PerLayer[m].Value
	}
	for _, e := range exact {
		again, other := smoke(t, "1", e.workload, e.traced), smoke(t, "2", e.workload, e.traced)
		v1, v2, v3 := get(a, e.workload, e.metric), get(again, e.workload, e.metric), get(other, e.workload, e.metric)
		if v1 != v2 {
			t.Errorf("%s %s: %v then %v under one seed", e.workload, e.metric, v1, v2)
		}
		if v1 == v3 {
			t.Errorf("%s %s: %v under seeds 1 and 2 alike", e.workload, e.metric, v1)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{}, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	thousand := make([]int64, 1000)
	for i := range thousand {
		thousand[i] = int64(i + 1)
	}
	if got := percentile(thousand, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990: ten samples lie beyond it", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v, from Python 3.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 12, 11, 50, 9}, [3]float64{9.5, 11, 31}},
	} {
		q1, q2, q3 := quartiles(c.v)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
	if s := spread([]float64{9, 10, 10, 10, 11}); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("spread = %g, want 0.1", s)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %g", s)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name       string
		base, cand []float64
		better     string
		bound      float64
		want       string
	}{
		{"same", steady, steady, "lower", 0.10, "ok"},
		{"slower within bound", steady, []float64{105, 106, 104, 105, 105}, "lower", 0.10, "ok"},
		{"slower beyond bound", steady, []float64{120, 121, 119, 120, 120}, "lower", 0.10, "regression"},
		{"faster", steady, []float64{50, 51, 49, 50, 50}, "lower", 0.10, "ok"},
		{"throughput down", steady, []float64{80, 81, 79, 80, 80}, "higher", 0.10, "regression"},
		{"throughput up", steady, []float64{130, 131, 129, 130, 130}, "higher", 0.10, "ok"},
		{"noisy baseline hides it", []float64{70, 100, 130, 85, 115}, []float64{120, 121, 119, 120, 120}, "lower", 0.10, "unresolved"},
		{"noisy candidate never reads unchanged", steady, []float64{70, 100, 130, 85, 115}, "lower", 0.10, "unresolved"},
		{"exact count repeats", []float64{6, 6, 6}, []float64{6, 6, 6}, "lower", 0, "ok"},
		{"exact count moved", []float64{6, 6, 6}, []float64{7, 7, 7}, "lower", 0, "regression"},
		{"exact count wobbles", []float64{6, 6, 6}, []float64{6, 7, 6}, "lower", 0, "unresolved"},
	} {
		if got, _, _ := verdict(c.base, c.cand, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentRuns(t *testing.T) {
	a := stampEnv(config{rows: 1000, seed: 1, seconds: 10})
	for name, change := range map[string]func(*env){
		"rows":       func(e *env) { e.Rows = 2000 },
		"seed":       func(e *env) { e.Seed = 2 },
		"seconds":    func(e *env) { e.Seconds = 5 },
		"gomaxprocs": func(e *env) { e.GOMAXPROCS++ },
		"episodes":   func(e *env) { e.Episodes = map[string]int{wExploreCold: 1} },
	} {
		b := a
		change(&b)
		if comparable(a, b) == nil {
			t.Errorf("summaries differing in %s were accepted", name)
		}
	}
	b := a
	b.Commit, b.WallSeconds = "another", 99
	if err := comparable(a, b); err != nil {
		t.Errorf("summaries differing only in commit and wall time were refused: %v", err)
	}

	// ops_per_s is gated; episode_ms is demoted on explore-cold, so its
	// verdict is printed and fails nothing.
	dir := t.TempDir()
	write := func(name string, e env, opsPerS, episodeMs float64) string {
		r := newResult(wExploreCold)
		r.e2e("ops_per_s", opsPerS, 1)
		r.e2e("episode_ms", episodeMs, 1)
		doc, _ := json.Marshal(summary{Env: e, Workloads: []*result{r}})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := []string{write("a1", a, 100, 100), write("a2", a, 101, 101), write("a3", a, 99, 99)}
	same := []string{write("b1", a, 100, 100), write("b2", a, 102, 102), write("b3", a, 99, 99)}
	slow := []string{write("c1", a, 60, 100), write("c2", a, 61, 101), write("c3", a, 59, 99)}
	demoted := []string{write("e1", a, 100, 130), write("e2", a, 101, 131), write("e3", a, 99, 129)}
	odd := []string{write("d1", b, 100, 100)}
	b.Seed = 9
	odd = append(odd, write("d2", b, 100, 100))
	var out, errOut bytes.Buffer
	if code := runCompare(base, same, &out, &errOut); code != 0 || !strings.Contains(out.String(), "ok") {
		t.Errorf("same code: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runCompare(base, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), "regression") {
		t.Errorf("40%% fewer ops per second: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(base, demoted, &out, &errOut); code != 0 || !strings.Contains(out.String(), "regression (demoted)") {
		t.Errorf("30%% slower episodes, demoted: exit %d\n%s", code, out.String())
	}
	if code := runCompare(base, odd, &out, &errOut); code != 2 {
		t.Errorf("different seeds: exit %d, want refusal", code)
	}
}
