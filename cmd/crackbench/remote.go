package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/exp"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/store"
)

// remoteConfig drives the -remote mode: the warm serving workload of the
// -clients benchmark, but fired over TCP at a crackserved daemon, with the
// in-process concurrent wrapper measured alongside as the baseline. The
// daemon must have been started with the same -rows and -seed so both
// sides serve the same relation.
type remoteConfig struct {
	Addr    string
	Clients int
	Conns   int // pooled TCP connections; in-flight depth per conn ~= Clients/Conns
	Rows    int
	Queries int
	Pool    int
	Sel     float64
	Churn   float64 // fraction of queries over cold, never-warmed ranges
	Seed    int64
	JSONDir string
	TraceN  int // sample 1-in-N queries for end-to-end traces (0 = off)
}

func (c remoteConfig) withDefaults() remoteConfig {
	base := concurrentConfig{Rows: c.Rows, Queries: c.Queries, Pool: c.Pool, Sel: c.Sel}.withDefaults()
	c.Rows, c.Queries, c.Pool, c.Sel = base.Rows, base.Queries, base.Pool, base.Sel
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.JSONDir == "" {
		// The remote series is this mode's artifact; emit it next to the
		// committed baselines unless told otherwise.
		c.JSONDir = "bench"
	}
	return c
}

// pipelineDepth is the nominal in-flight requests per pooled connection.
func (c remoteConfig) pipelineDepth() int {
	d := c.Clients / c.Conns
	if d < 1 {
		d = 1
	}
	return d
}

// runRemote replays the warm pool through the wire: warm every query once
// (each range cracks server-side), then fire Clients goroutines issuing
// synchronous pipelined requests over the pooled connections, measuring
// latency from the client side.
func (c remoteConfig) runRemote(pool []engine.Query) (serve.Stats, int) {
	// With -trace N, 1-in-N requests carry a trace ID over the wire; the
	// client re-anchors the server's queue/execute/crack spans into its own
	// timeline and we keep the slowest ones to print after the run.
	var (
		traceMu sync.Mutex
		traces  []*obs.Trace
	)
	opts := client.Options{Conns: c.Conns}
	if c.TraceN > 0 {
		opts.TraceSample = c.TraceN
		opts.OnTrace = func(tr *obs.Trace) {
			traceMu.Lock()
			traces = append(traces, tr)
			traceMu.Unlock()
		}
	}
	cl, err := client.Dial(c.Addr, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crackbench: dial %s: %v (is crackserved running with matching -rows/-seed?)\n", c.Addr, err)
		os.Exit(1)
	}
	defer cl.Close()

	before, err := cl.Stats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crackbench: remote stats: %v\n", err)
		os.Exit(1)
	}
	for _, q := range pool {
		if _, _, err := cl.Query(q); err != nil {
			fmt.Fprintf(os.Stderr, "crackbench: warm query failed: %v\n", err)
			os.Exit(1)
		}
	}
	runtime.GC()

	perClient := c.Queries / c.Clients
	latCh := make(chan []time.Duration, c.Clients)
	var clientErrs atomic.Int64
	// Cold queries land on never-warmed ranges and crack server-side; the
	// geometry is shared with the in-process arm so both draw identical
	// workloads.
	width, span := concurrentConfig{Rows: c.Rows, Sel: c.Sel}.churnGeometry()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < c.Clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lats := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				q := pool[rng.Intn(len(pool))]
				if c.Churn > 0 && rng.Float64() < c.Churn {
					q = coldQuery(rng, width, span)
				}
				qt0 := time.Now()
				if _, _, err := cl.Query(q); err != nil {
					clientErrs.Add(1)
					continue
				}
				lats = append(lats, time.Since(qt0))
			}
			latCh <- lats
		}(c.Seed + 100 + int64(g))
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(latCh)
	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}

	after, err := cl.Stats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crackbench: remote stats: %v\n", err)
		os.Exit(1)
	}
	// Server-counted failures (e.g. timeouts) also reach the client as
	// error responses, so the client-side count already covers them —
	// summing the two would double-count. The server delta is kept
	// separately as a cross-check for failures whose response was lost.
	serverErrs := after.Errors - before.Errors
	errs := int(clientErrs.Load())
	if serverErrs > errs {
		errs = serverErrs
	}
	st := serve.Summarize(all, errs, elapsed)
	fmt.Printf("%-22s %8d queries  %3d errors  %10.0f q/s  p50=%-8s p95=%-8s p99=%-8s max=%s\n",
		fmt.Sprintf("remote (%d conns)", c.Conns), st.Queries, st.Errors, st.QPS, st.P50, st.P95, st.P99, st.Max)
	if c.TraceN > 0 {
		printSlowestTraces(traces, 10)
	}
	return st, serverErrs
}

// printSlowestTraces prints up to n collected traces, slowest first, as
// the same one-line JSON the server emits, so the two sides of a trace ID
// can be grepped together.
func printSlowestTraces(traces []*obs.Trace, n int) {
	if len(traces) == 0 {
		fmt.Println("traces: none collected (is the daemon a current build speaking protocol v2?)")
		return
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Total > traces[j].Total })
	if n > len(traces) {
		n = len(traces)
	}
	fmt.Printf("traces: %d collected, %d slowest:\n", len(traces), n)
	for _, tr := range traces[:n] {
		tr.WriteJSON(os.Stdout)
	}
}

// runRemoteBench is the -remote entry point. It exits nonzero when any
// query failed on either side of the wire, so CI smoke runs catch protocol
// regressions.
func runRemoteBench(c remoteConfig) {
	c = c.withDefaults()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	fmt.Printf("== remote serving vs in-process: %s, %d clients over %d conns (pipeline ~%d), %d rows, %d queries ==\n",
		c.Addr, c.Clients, c.Conns, c.pipelineDepth(), c.Rows, c.Queries)

	// In-process concurrent baseline over the identical relation/workload.
	base := concurrentConfig{
		Clients: c.Clients, Rows: c.Rows, Queries: c.Queries,
		Pool: c.Pool, Sel: c.Sel, Churn: c.Churn, Seed: c.Seed,
	}.withDefaults()
	inproc := base.runMode("in-process concurrent", func(rel *store.Relation) engine.Engine {
		return engine.Concurrent(engine.New(engine.Sideways, rel))
	})

	remote, serverErrs := c.runRemote(base.queryPool())

	if inproc.QPS > 0 {
		fmt.Printf("remote/in-process throughput ratio: %.2fx\n", remote.QPS/inproc.QPS)
	}
	if c.JSONDir != "" {
		depth := c.pipelineDepth()
		title := fmt.Sprintf("Remote serving, %d clients over %d conns (%d rows, %.0f%% cold churn, sideways workload): in-process %.0f q/s vs remote %.0f q/s",
			c.Clients, c.Conns, c.Rows, c.Churn*100, inproc.QPS, remote.QPS)
		series := []exp.Series{
			{Name: "in-process concurrent", Y: inproc.Latencies, Errors: inproc.Errors,
				Transport: "in-process", Conns: 0, Pipeline: c.Clients},
			{Name: "remote tcp", Y: remote.Latencies, Errors: remote.Errors,
				Transport: "tcp", Conns: c.Conns, Pipeline: depth},
		}
		meta := map[string]string{
			"rows":        fmt.Sprint(c.Rows),
			"queries":     fmt.Sprint(c.Queries),
			"clients":     fmt.Sprint(c.Clients),
			"conns":       fmt.Sprint(c.Conns),
			"selectivity": fmt.Sprint(c.Sel),
			"churn":       fmt.Sprint(c.Churn),
			"seed":        fmt.Sprint(c.Seed),
		}
		if err := exp.WriteSeriesJSONMeta(c.JSONDir, "remote_serving",
			title, "query (completion order)", meta, series); err != nil {
			fmt.Printf("json export failed: %v\n", err)
		}
	}
	if remote.Errors > 0 {
		fmt.Fprintf(os.Stderr, "crackbench: remote run unhealthy: %d errors (%d server-side)\n",
			remote.Errors, serverErrs)
		os.Exit(1)
	}
}
