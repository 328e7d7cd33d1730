// Command crackbench regenerates the synthetic experiments of the paper's
// Sections 3.6 and 4.2: Exp1-Exp6 (Figures 4-7 and the cost-breakdown
// table) and the partial-map experiments (Figures 9-13).
//
// Usage:
//
//	crackbench -exp exp1            # one experiment at default scale
//	crackbench -exp all             # everything
//	crackbench -exp fig9 -rows 1000000 -queries 1000   # paper scale
//	crackbench -exp exp2 -scale paper
//	crackbench -exp exp1 -json bench_out               # BENCH_*.json series
//	crackbench -clients 8 -json bench_out              # concurrent serving
//	crackbench -shards 4 -clients 8                    # sharded serving
//	crackbench -policy all -pattern all                # adaptive policies
//	crackbench -remote localhost:9090 -clients 8       # vs crackserved
//	crackbench -chaos                                  # fault-injection sweep
//	crackbench -remote localhost:9090 -chaos           # verified chaos smoke
//	crackbench -mvcc                                   # snapshot reads vs RWMutex
//	crackbench -clients 8 -cpus 1,2,4                  # GOMAXPROCS sweep
//	crackbench -durable                                # warm restart vs cold rebuild
//	crackbench -remote :9090 -durable-smoke st.json    # churn until daemon dies
//	crackbench -remote :9090 -durable-verify st.json   # acked writes survived?
//
// Experiment ids: exp1 exp2 exp3 exp4 exp5 exp6 fig9 fig10 fig11 fig12
// fig13 ablation all. Sizes default to a laptop-friendly scale; -scale paper uses
// the paper's sizes (expect minutes per experiment).
//
// With -policy and/or -pattern the command runs the adaptive-cracking
// comparison instead: for every (access pattern, cracking policy) pair it
// replays a range-query stream against a fresh cracking engine and emits
// bench/BENCH_adaptive_workloads.json. Sequential sweeps and zoom-ins
// degrade plain cracking toward quadratic total work; the stochastic and
// capped policies pre-split oversized pieces and stay near-linear.
//
// With -clients N the command instead runs the concurrent serving
// benchmark: N client goroutines fire a warm sideways workload through the
// serving layer, once against the serialized (global-mutex) baseline and
// once against the probe/execute Concurrent wrapper, reporting aggregate
// QPS, tail latencies, and error counts. Adding -shards S also measures the
// relation range-partitioned across S independently locked engines and
// emits BENCH_sharded_serving.json next to the single-engine series.
//
// With -remote addr the same workload is instead fired over TCP at a
// crackserved daemon (start it first with matching -rows/-seed; restart it
// before churn runs so cold ranges are actually cold) and compared against
// the in-process concurrent baseline, emitting BENCH_remote_serving.json.
// The run exits nonzero if any query failed on either side of the wire, so
// CI can use it as a protocol smoke test.
//
// With -chaos the command measures the resilience layer: the warm workload
// travels through an in-process fault-injecting proxy (internal/faultnet)
// at 0%/1%/5% aggregate fault rates with client retries on and off, plus a
// hedged-read segment and an overload segment at 2x the server's admission
// capacity, emitting BENCH_chaos_resilience.json with retry/hedge/shed/
// redial counters per series. Combined with -remote it instead runs a
// verified chaos smoke against a live daemon — every answer checked
// against a local engine over the identical relation — and exits nonzero
// on any wrong answer or residual error (the CI chaos job).
//
// With -mvcc the command runs the snapshot-reads benchmark: a warm
// read-only workload executes while one background writer continuously
// cracks a cold attribute and streams insertions, measured under the
// Snapshot wrapper (lock-free epoch-protected reads), under the
// Concurrent RWMutex wrapper, and against a no-writer baseline — at each
// GOMAXPROCS value of the -cpus sweep (default 1,2,4). It emits
// bench/BENCH_mvcc_reads.json with per-read latency samples plus reader-
// wait and version-publish/reclaim counters per series; the claim pinned
// by the artifact is that snapshot reads keep near-baseline throughput
// and a p99 orders of magnitude below the RWMutex arm's, because readers
// never wait for a crack.
//
// The -cpus flag also applies to -clients: the serialized/concurrent
// comparison is repeated at each GOMAXPROCS value, one series per value,
// so multi-core scaling claims are reproducible from the artifact.
//
// With -durable the command benchmarks the durability subsystem locally:
// it cracks a durable store with a query pool, closes it cleanly, reopens
// it (recovery replays the crack tape), and fires the pool again — against
// a cold from-scratch engine answering the identical queries — plus a
// per-insert ack-latency panel for each WAL fsync mode, emitting
// bench/BENCH_durability.json. The pinned claim: a warm restart answers
// its first queries without re-paying any crack, and group commit shares
// fsyncs across concurrent writers.
//
// -durable-smoke and -durable-verify are the two halves of the CI
// crash-recovery job, both pointed at a `crackserved -data-dir` daemon via
// -remote: smoke churns the daemon with out-of-domain sentinel inserts
// (interleaved with cracking queries) until CI SIGKILLs it, recording
// which inserts were acked; verify runs against the restarted daemon and
// exits nonzero unless every acked insert survived exactly once and no
// row exists that was never submitted.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crackstore/internal/exp"
	"crackstore/internal/workload"
)

func main() {
	var (
		expID   = flag.String("exp", "all", "experiment id (exp1..exp6, fig9..fig13, all)")
		rows    = flag.Int("rows", 0, "base relation rows (0 = scale default)")
		queries = flag.Int("queries", 0, "queries per sequence (0 = scale default)")
		seed    = flag.Int64("seed", 1, "workload seed")
		scale   = flag.String("scale", "default", "default | paper")
		csvDir  = flag.String("csv", "", "also write full series as CSV files into this directory")
		jsonDir = flag.String("json", "", "also write per-query cumulative latency series as BENCH_*.json files into this directory")
		clients = flag.Int("clients", 0, "run the concurrent serving benchmark with this many client goroutines instead of the paper experiments")
		shards  = flag.Int("shards", 0, "concurrent mode: also measure the relation range-partitioned across this many independently locked engines (emits BENCH_sharded_serving.json; -json defaults to bench/)")
		srvPool = flag.Int("pool", 0, "concurrent mode: distinct predicates in the warm workload (0 = default)")
		srvSel  = flag.Float64("sel", 0, "concurrent mode: per-query selectivity (0 = default 0.0002)")
		srvChrn = flag.Float64("churn", 0, "concurrent mode: fraction of queries over cold never-warmed ranges (each one cracks; 0 = fully warm workload)")
		mvcc    = flag.Bool("mvcc", false, "run the snapshot-reads benchmark: a warm read workload under a continuously cracking background writer, Snapshot (lock-free epoch-protected reads) vs Concurrent (RWMutex) vs a no-writer baseline, swept over -cpus (emits BENCH_mvcc_reads.json; -json defaults to bench/)")
		cpus    = flag.String("cpus", "", "comma-separated GOMAXPROCS values to sweep (serving modes emit one series per value; default: -mvcc sweeps 1,2,4, other modes run at the process default)")
		policy  = flag.String("policy", "", "adaptive mode: cracking policy to measure (default|stochastic|capped|all); runs the policy-vs-pattern comparison and emits BENCH_adaptive_workloads.json (-json defaults to bench/)")
		pattern = flag.String("pattern", "", "adaptive mode: access pattern to measure (random|sequential|zoomin|periodic|all)")
		remote  = flag.String("remote", "", "run the remote serving benchmark against a crackserved daemon at this address (start it with matching -rows/-seed); emits BENCH_remote_serving.json and exits nonzero on any error")
		conns   = flag.Int("conns", 0, "remote mode: pooled TCP connections (0 = default 2)")
		chaos   = flag.Bool("chaos", false, "run the chaos resilience benchmark: fire the warm workload through a fault-injecting proxy, sweeping fault rates with retries on/off plus a 2x-capacity overload segment (emits BENCH_chaos_resilience.json); with -remote, instead run a verified chaos smoke against the daemon and exit nonzero on any wrong answer")
		chRate  = flag.Float64("chaos-rate", 0.01, "chaos smoke (-remote -chaos): aggregate fault rate injected by the local proxy")
		chSeed  = flag.Int64("chaos-seed", 7, "chaos mode: fault decision seed")
		durable = flag.Bool("durable", false, "run the durability benchmark: warm restart (crack-tape replay) vs cold rebuild on first-query latency, plus per-insert ack latency under each WAL fsync mode (emits BENCH_durability.json; -json defaults to bench/)")
		durSmk  = flag.String("durable-smoke", "", "churn a crackserved -data-dir daemon (via -remote) with sentinel inserts until it dies, writing the acked-write manifest to this file for -durable-verify (the CI crash-recovery job)")
		durVfy  = flag.String("durable-verify", "", "verify a restarted daemon (via -remote) against a -durable-smoke manifest: every acked insert present exactly once; exits nonzero on lost or duplicated acked writes")
		obsBnch = flag.Bool("obs", false, "run the observability overhead benchmark: the warm serving workload uninstrumented, instrumented-and-scraped, and with 1/1024 trace sampling (emits BENCH_observability.json; -json defaults to bench/)")
		traceN  = flag.Int("trace", 0, "remote mode: sample 1-in-N queries for end-to-end tracing and print the slowest traces after the run (needs a crackserved started with protocol v2, i.e. any current build)")
	)
	flag.Parse()

	cpuSweep, err := parseCPUs(*cpus)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -cpus: %v\n", err)
		os.Exit(2)
	}

	if *durSmk != "" || *durVfy != "" {
		if *remote == "" {
			fmt.Fprintln(os.Stderr, "-durable-smoke / -durable-verify need -remote addr (a crackserved -data-dir daemon)")
			os.Exit(2)
		}
		if *durSmk != "" {
			runDurableSmoke(*remote, *durSmk, *rows, *seed)
		} else {
			runDurableVerify(*remote, *durVfy)
		}
		return
	}

	if *durable {
		runDurableBench(durableConfig{
			Rows:    *rows,
			Queries: *queries,
			Sel:     *srvSel,
			Seed:    *seed,
			JSONDir: *jsonDir,
		})
		return
	}

	if *mvcc {
		runMvccBench(mvccConfig{
			Clients: *clients,
			Rows:    *rows,
			Queries: *queries,
			Pool:    *srvPool,
			Sel:     *srvSel,
			Seed:    *seed,
			JSONDir: *jsonDir,
			CPUs:    cpuSweep,
		})
		return
	}

	if *obsBnch {
		runObsBench(obsConfig{
			Clients: *clients,
			Rows:    *rows,
			Queries: *queries,
			Pool:    *srvPool,
			Sel:     *srvSel,
			Seed:    *seed,
			JSONDir: *jsonDir,
		})
		return
	}

	if *remote != "" && *chaos {
		runRemoteChaosBench(remoteConfig{
			Addr:    *remote,
			Clients: *clients,
			Conns:   *conns,
			Rows:    *rows,
			Queries: *queries,
			Pool:    *srvPool,
			Sel:     *srvSel,
			Seed:    *seed,
		}, *chRate, *chSeed)
		return
	}
	if *chaos {
		runChaosBench(chaosConfig{
			Clients:   *clients,
			Conns:     *conns,
			Rows:      *rows,
			Queries:   *queries,
			Pool:      *srvPool,
			Sel:       *srvSel,
			Seed:      *seed,
			FaultSeed: *chSeed,
			JSONDir:   *jsonDir,
		})
		return
	}

	if *remote != "" {
		runRemoteBench(remoteConfig{
			Addr:    *remote,
			Clients: *clients,
			Conns:   *conns,
			Rows:    *rows,
			Queries: *queries,
			Pool:    *srvPool,
			Sel:     *srvSel,
			Churn:   *srvChrn, // cold ranges need a freshly started daemon to actually be cold
			Seed:    *seed,
			JSONDir: *jsonDir,
			TraceN:  *traceN,
		})
		return
	}

	if *policy != "" || *pattern != "" {
		runAdaptiveBench(*rows, *queries, *seed, *jsonDir, *policy, *pattern)
		return
	}

	if *shards > 0 && *clients <= 0 {
		fmt.Fprintln(os.Stderr, "-shards only applies to the serving benchmark; add -clients N")
		os.Exit(2)
	}
	if *clients > 0 {
		runConcurrentBench(concurrentConfig{
			Clients:  *clients,
			Shards:   *shards,
			Rows:     *rows,
			Queries:  *queries,
			Pool:     *srvPool,
			Sel:      *srvSel,
			Churn:    *srvChrn,
			Seed:     *seed,
			JSONDir:  *jsonDir,
			CPUSweep: cpuSweep,
		})
		return
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
	cfg.JSONDir = *jsonDir

	// The Section 4.2 experiments use a 10x smaller relation than the
	// Section 3.6 ones in the paper (1e6 vs 1e7); mirror that ratio unless
	// rows were given explicitly.
	partialCfg := cfg
	if *rows == 0 {
		partialCfg.Rows = cfg.Rows / 2
		if partialCfg.Rows < 1000 {
			partialCfg.Rows = cfg.Rows
		}
	}

	run := func(id string, f func()) {
		if *expID != "all" && *expID != id {
			return
		}
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
	run("ablation", func() { exp.Ablations(cfg) })

	switch *expID {
	case "all", "exp1", "exp2", "exp3", "exp4", "exp5", "exp6",
		"fig9", "fig10", "fig11", "fig12", "fig13", "ablation":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expID)
		flag.Usage()
		os.Exit(2)
	}
}

// parseCPUs parses the -cpus sweep list ("1,2,4") into GOMAXPROCS values.
func parseCPUs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("%q is not a positive CPU count", part)
		}
		out = append(out, p)
	}
	return out, nil
}
