// Command crackserved serves a crackstore engine over TCP: the network
// daemon of the remote-serving subsystem. It builds a synthetic relation
// (attributes A, B, C with uniform values in [1, rows], deterministic
// under -seed, so a client can rebuild it and check answers), wraps it in
// the chosen engine, and listens for internal/wire clients —
// crackstore.Dial, or the client package directly.
//
// Usage:
//
//	crackserved -addr :9090                                # sideways engine
//	crackserved -kind selcrack -rows 1000000 -workers 8
//	crackserved -shards 4 -policy stochastic               # sharded + adaptive
//	crackserved -timeout 250ms                             # bound each query
//	crackserved -fault-rate 0.01 -fault-seed 7             # chaos debug mode
//	crackserved -data-dir /var/lib/crack -fsync group      # durable engine
//
// The daemon drains gracefully on SIGINT/SIGTERM: it stops accepting,
// answers everything in flight, prints the serving statistics, and exits.
// A per-query -timeout keeps one slow crack from wedging a connection's
// pipeline (timed-out queries fail with a distinct error, counted in the
// stats, while the crack completes in the background).
//
// -fault-rate wraps the listener in internal/faultnet: accepted
// connections corrupt, truncate, reset, short-write, and delay their
// streams at the given aggregate rate, with decisions seeded by
// -fault-seed. This is a debug mode for exercising client resilience
// (retries, idempotent writes, redials) against a real daemon without a
// separate proxy. -max-waiting and -max-inflight bound admission:
// requests beyond them draw an in-band overloaded response (shed) instead
// of queueing without bound.
//
// -data-dir makes the engine durable: acked writes go through a write-
// ahead log in that directory before they are applied, reorganizing
// queries are recorded on a crack tape, and restarts recover the store —
// warm — from the last checkpoint plus the log tail. On a fresh directory
// the synthetic relation seeds the store; on restart the directory wins
// and -rows/-seed are ignored. Startup logs whether recovery was clean
// (clean-shutdown marker honored, zero records replayed) or replayed
// (records and bytes applied, torn tail truncated). The SIGINT/SIGTERM
// drain flushes and fsyncs the log, writes a checkpoint and the clean-
// shutdown marker, so the next start skips replay. -fsync picks the
// durability mode (group | none); -data-dir is incompatible with
// -shards and -snapshot.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/faultnet"
	"crackstore/internal/netserve"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/shard"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":9090", "listen address")
		kindName = flag.String("kind", "sideways", "engine kind ("+kindNames()+")")
		shards   = flag.Int("shards", 0, "partition the relation across this many independently locked engines (0 = unsharded)")
		policy   = flag.String("policy", "", "adaptive cracking policy (default|stochastic|capped; empty = crack at query bounds only)")
		workers  = flag.Int("workers", 0, "concurrently executing queries (0 = GOMAXPROCS)")
		snapshot = flag.Bool("snapshot", false, "serve reads from epoch-protected snapshots (lock-free reads; selcrack engines, per shard when sharded)")
		timeout  = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		rows     = flag.Int("rows", 200_000, "synthetic relation rows")
		seed     = flag.Int64("seed", 1, "synthetic relation seed")
		maxFrame = flag.Int("max-frame", 0, "largest accepted request frame in bytes (0 = default)")
		maxWait  = flag.Int("max-waiting", 0, "shed queries in-band once this many are queued for a worker (0 = queue without bound)")
		maxInfl  = flag.Int("max-inflight", 0, "shed requests in-band once this many are in flight across all connections (0 = per-connection pipelining limits only)")
		faultR   = flag.Float64("fault-rate", 0, "DEBUG: inject connection faults (corruption, resets, truncation, partial writes, delays) at this aggregate per-operation rate")
		faultS   = flag.Int64("fault-seed", 1, "DEBUG: seed for -fault-rate decisions")
		dataDir  = flag.String("data-dir", "", "durable mode: write-ahead log + checkpoints in this directory; restarts recover the store warm")
		fsync    = flag.String("fsync", "group", "durable mode fsync policy (group|none)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics (Prometheus text; ?format=json for JSON) and /debug/pprof/* on this address (empty = off)")
		traceN   = flag.Int("trace-sample", 0, "server-side sample 1 in N requests for tracing; traces print as one-line JSON events on stderr (0 = off)")
	)
	flag.Parse()

	kind, ok := engine.KindByName(*kindName)
	if !ok {
		fmt.Fprintf(os.Stderr, "crackserved: unknown engine kind %q (valid: %s)\n", *kindName, kindNames())
		os.Exit(2)
	}
	// The zero policy is "crack at query bounds only", what -policy ""
	// asks for.
	var pol crack.Policy
	if *policy != "" {
		pk, ok := crack.KindByName(*policy)
		if !ok {
			fmt.Fprintf(os.Stderr, "crackserved: unknown policy %q\n", *policy)
			os.Exit(2)
		}
		pol.Kind = pk
	}

	rng := rand.New(rand.NewSource(*seed))
	domain := int64(*rows)
	rel := store.Build("R", *rows, []string{"A", "B", "C"}, func(string, int) store.Value {
		return 1 + rng.Int63n(domain)
	})

	// This is the one place that decides how the engine is shared and which
	// policy it cracks under; the serving layers below take what they get
	// (serve.New wraps a bare engine in Concurrent, nothing else).
	var e engine.Engine
	if *dataDir != "" {
		if *shards > 1 || *snapshot {
			fmt.Fprintln(os.Stderr, "crackserved: -data-dir is incompatible with -shards and -snapshot")
			os.Exit(2)
		}
		mode, err := wal.ParseSyncMode(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crackserved: %v\n", err)
			os.Exit(2)
		}
		e, err = engine.OpenDurable(kind, rel, *dataDir, engine.DurableOptions{Sync: mode, Policy: pol})
		if err != nil {
			fmt.Fprintf(os.Stderr, "crackserved: open %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		if ds, ok := engine.DurStatsOf(e); ok {
			switch {
			case !ds.Recovered:
				fmt.Printf("crackserved: durable: fresh store in %s (fsync=%s)\n", *dataDir, mode)
			case ds.CleanShutdown:
				fmt.Printf("crackserved: durable: clean recovery from %s (tape=%d cracks, no replay) in %v\n",
					*dataDir, ds.TapeLen, ds.RecoveryTime.Round(time.Millisecond))
			default:
				fmt.Printf("crackserved: durable: replayed recovery from %s (%d records, %d bytes, %d torn bytes truncated, tape=%d cracks) in %v\n",
					*dataDir, ds.ReplayedRecords, ds.ReplayedBytes, ds.TruncatedBytes, ds.TapeLen, ds.RecoveryTime.Round(time.Millisecond))
			}
			if ds.TapeSkipped > 0 {
				fmt.Printf("crackserved: durable: skipped %d crack-tape records that do not fit the recovered relation\n", ds.TapeSkipped)
			}
		}
	} else if *shards > 1 {
		e = shard.New(kind, rel, *shards, shard.Options{Attr: "A", Policy: pol, Snapshot: *snapshot})
	} else {
		e = engine.NewWith(kind, rel, engine.Options{Policy: pol})
		if *snapshot {
			e = engine.Snapshot(e)
		}
	}

	// The metrics registry observes every layer at scrape time: the engine
	// bridge (kernel, snapshot, WAL) registers here, and the netserve /
	// serve layers register their own instruments through Options.Metrics.
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crackserved: metrics listen %s: %v\n", *metrics, err)
			os.Exit(1)
		}
		go http.Serve(mln, mux)
		fmt.Printf("crackserved: metrics and pprof on http://%s/metrics\n", mln.Addr())
	}

	opts := netserve.Options{
		Serve: serve.Options{
			Workers:    *workers,
			Timeout:    *timeout,
			MaxWaiting: *maxWait,
		},
		MaxFrame:    *maxFrame,
		MaxInflight: *maxInfl,
		Metrics:     reg,
		TraceSample: *traceN, // events go to stderr (netserve's default sink)
	}
	var srv *netserve.Server
	var bound net.Addr
	if *faultR > 0 {
		// Chaos debug mode: the daemon's own listener injects faults, so a
		// plain client exercises the whole resilience path with no proxy.
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crackserved: %v\n", err)
			os.Exit(1)
		}
		bound = ln.Addr()
		srv = netserve.NewServer(e, opts)
		go srv.Serve(faultnet.WrapListener(ln, faultnet.Mix(*faultR, *faultS)))
		fmt.Printf("crackserved: FAULT INJECTION ON: %.2f%% aggregate rate, seed %d\n", *faultR*100, *faultS)
	} else {
		var err error
		srv, err = netserve.Listen(*addr, e, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crackserved: %v\n", err)
			os.Exit(1)
		}
		bound = srv.Addr()
	}
	// Register the engine bridge against the engine that actually serves:
	// serve.New wraps a bare e in Concurrent, and the wrapper is what locks
	// correctly for scrapes.
	engine.RegisterMetrics(reg, srv.Engine())
	fmt.Printf("crackserved: %s engine (%d rows, shards=%d, policy=%s) listening on %s\n",
		kind, *rows, *shards, orDefault(*policy), bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("crackserved: draining...")
	t0 := time.Now()
	srv.Close()
	// Everything in flight is answered; now make it durable. CloseDurable
	// fsyncs the log, writes a final checkpoint, and leaves the clean-
	// shutdown marker so the next start skips replay.
	if ok, err := engine.CloseDurable(e); ok {
		if err != nil {
			fmt.Fprintf(os.Stderr, "crackserved: durable close: %v\n", err)
		} else {
			fmt.Println("crackserved: durable: checkpointed and marked clean")
		}
	}
	st := srv.Stats()
	fmt.Printf("crackserved: drained in %v; served %d queries (%d errors), %.0f q/s, p50=%v p99=%v max=%v\n",
		time.Since(t0).Round(time.Millisecond), st.Queries, st.Errors, st.QPS, st.P50, st.P99, st.Max)
	// Durability and snapshot lifecycle summaries, when the engine has
	// those layers: the numbers an operator wants in the shutdown log to
	// corroborate a clean drain (everything fsynced, nothing in limbo).
	if ds, ok := engine.DurStatsOf(srv.Engine()); ok {
		fmt.Printf("crackserved: durable: %d appends, %d fsyncs, %d group commits, %d tape records, %d checkpoints\n",
			ds.Wal.Appends, ds.Wal.Fsyncs, ds.Wal.GroupCommits, ds.TapeLen, ds.Checkpoints)
	}
	if ss, ok := engine.SnapshotStatsOf(srv.Engine()); ok {
		fmt.Printf("crackserved: snapshots: %d published, %d reclaimed, %d in limbo\n",
			ss.Published, ss.Reclaimed, ss.Limbo)
	}
}

func orDefault(policy string) string {
	if policy == "" {
		return "default"
	}
	return policy
}

// kindNames lists the kinds the daemon serves, as -kind spells them.
func kindNames() string {
	names := make([]string, 0, len(engine.Kinds()))
	for _, k := range engine.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, "|")
}
