// Command benchmark is crackstore's benchmark: seven named workloads,
// eleven end-to-end metrics and a per-layer ledger measured from outside
// the program's packages. README.md says who the users are, what each
// workload and metric means, and how to read the output; BENCHMARK.json at
// the root of the repository is the contract an acceptance driver runs it
// under.
//
//	bash benchmark/run.sh --seed 1                      every workload, untraced
//	bash benchmark/run.sh --workload serve-warm --trace 1
//	bash benchmark/run.sh --compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is the stamp every JSON summary carries: enough to tell whether two
// summaries may be compared and where each came from.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Rows       int     `json:"rows"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Trace      bool    `json:"trace"`
	// Episodes are the calibrated constants of workloads.go, before
	// scaling by seconds.
	Episodes    map[string]int `json:"episode_constants"`
	FlushPolicy string         `json:"flush_policy"`
	DataDir     string         `json:"data_dir"`
	DataDirFS   string         `json:"data_dir_fs"`
	Start       time.Time      `json:"start"`
	WallSeconds float64        `json:"wall_seconds"`
}

// summary is the -json document and the input of -compare.
type summary struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

func stampEnv(cfg config) env {
	e := env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Rows:       cfg.rows,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Smoke:      cfg.smoke,
		Trace:      cfg.trace,
		Episodes: map[string]int{
			wExploreCold: exploreColdEpisodes, wExploreBudget: exploreBudgetEpisodes,
			wUpdateMix: updateMixEpisodes, wDurableChurn: durableEpisodes,
			"durable-rounds": durableRounds, "queries-per-episode": exploreQueries,
			"pool": poolSize, "setup-repeats": setupRepeats,
		},
		FlushPolicy: flushPolicy.String(),
		DataDir:     cfg.dataDir,
		DataDirFS:   fsType(cfg.dataDir),
		Start:       time.Now().UTC(),
	}
	// A driver's checkout is not a git repository; a developer's is.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(out) > 0
		}
	}
	return e
}

// fsType names the filesystem holding dir (or its nearest existing parent).
func fsType(dir string) string {
	var st syscall.Statfs_t
	for {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	workload := fs.String("workload", "", "run only this workload (default: all seven)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated relation and query streams")
	fs.Float64Var(&cfg.seconds, "seconds", refSeconds, "run length per workload the episode counts and durations scale to")
	trace := fs.Int("trace", 0, "1: the traced run — per-layer ledger, spans, tracing overhead; 0: end-to-end only")
	fs.BoolVar(&cfg.smoke, "smoke", false, "self-test scale: 20k rows, 2 episodes, 300 ms durations")
	fs.StringVar(&cfg.dataDir, "data-dir", filepath.Join(".bench_build", "data"), "where durable-churn keeps its WAL directories")
	fs.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "trace.jsonl"), "where the traced run writes its spans, as JSON lines")
	jsonOut := fs.String("json", "", "also write the summary (env + every metric) to this file")
	compare := fs.String("compare", "", "compare summaries: -compare base1.json,base2.json,... cand1.json,cand2.json,...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: -compare wants the candidate summaries as its one argument")
			return 2
		}
		return runCompare(strings.Split(*compare, ","), strings.Split(fs.Arg(0), ","), stdout, stderr)
	}
	if fs.NArg() != 0 || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	cfg.trace = *trace == 1
	cfg.rows = fullRows
	if cfg.smoke {
		cfg.rows = smokeRows
	}
	todo := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *workload)
			return 2
		}
		todo = []workloadSpec{*w}
	}

	sum, err := measureAll(cfg, todo, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *jsonOut != "" {
		doc, err := json.MarshalIndent(sum, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	for _, r := range sum.Workloads {
		fmt.Fprintln(stdout, r.contractLine(cfg.trace))
		if r.Failed > 0 {
			code = 1
		}
	}
	return code
}

// measureAll runs the workloads in order and checks that the process is as
// quiet afterwards as it was before: every listener, client, server and
// data directory a workload opened is closed and gone.
func measureAll(cfg config, todo []workloadSpec, out io.Writer) (*summary, error) {
	sum := &summary{Env: stampEnv(cfg)}
	baseline := runtime.NumGoroutine()
	e := &sum.Env
	fmt.Fprintf(out, "crackstore benchmark: rows=%d seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s commit=%s dirty=%v\n",
		e.Rows, e.Seed, e.Seconds, e.Trace, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Dirty)
	fmt.Fprintf(out, "durable-churn flushes with wal.Sync%s on %s (%s): latency is this sandbox's, not a device's\n",
		strings.ToUpper(e.FlushPolicy[:1])+e.FlushPolicy[1:], e.DataDir, e.DataDirFS)

	b := newBench(cfg, out)
	if cfg.trace {
		os.Remove(cfg.traceOut) // spans of one invocation only
	}
	for i := range todo {
		r, err := b.measure(&todo[i])
		if err != nil {
			return nil, err
		}
		r.print(out, cfg.trace)
		sum.Workloads = append(sum.Workloads, r)
		runtime.GC()
	}
	os.Remove(cfg.dataDir) // succeeds only if every episode removed its directory

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		return nil, fmt.Errorf("%d goroutines still running after the last Close (baseline %d)", n, baseline)
	}
	if entries, err := os.ReadDir(cfg.dataDir); err == nil && len(entries) > 0 {
		return nil, fmt.Errorf("%d entries left behind in %s", len(entries), cfg.dataDir)
	}
	e.WallSeconds = time.Since(e.Start).Seconds()
	fmt.Fprintf(out, "total wall %.1f s\n", e.WallSeconds)
	return sum, nil
}

// measure runs one workload. Untraced, that is its end-to-end pass alone.
// Traced, the workload runs twice at half length — plain, then with spans
// recorded and a metrics registry attached to every layer that takes one —
// so the run prices its own tracing; then the ledger replays the workload's
// ops one layer boundary at a time.
func (b *bench) measure(w *workloadSpec) (*result, error) {
	r := newResult(w.Name)
	if !b.cfg.trace {
		w.run(b, r)
		r.finish()
		return r, nil
	}
	plain := newResult(w.Name)
	w.run(b, plain)
	runtime.GC()

	b.tr = newTracer(w.Name)
	defer func() { b.tr = nil }()
	w.run(b, r)
	if traced := r.EndToEnd["ops_per_s"].Value; traced > 0 {
		r.layer("trace.overhead_frac", plain.EndToEnd["ops_per_s"].Value/traced-1)
	}
	runtime.GC()
	w.ledger(b, r)
	r.Attempted += plain.Attempted
	r.Failed += plain.Failed
	r.Faults = append(r.Faults, plain.Faults...)
	r.finish()
	if err := b.tr.write(b.cfg.traceOut); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.out, "%d spans of %s appended to %s\n", len(b.tr.spans), w.Name, b.cfg.traceOut)
	return r, nil
}
