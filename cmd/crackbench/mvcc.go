package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/exp"
	"crackstore/internal/serve"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// mvccConfig drives the -mvcc mode: the snapshot-reads benchmark. A warm
// read-only workload runs against a selection-cracking engine while one
// background writer cracks a cold attribute continuously; the same
// read+write schedule is measured under the Snapshot wrapper (lock-free
// epoch-protected reads) and under the Concurrent RWMutex wrapper, plus a
// no-writer Snapshot baseline — at each GOMAXPROCS value of the -cpus sweep.
// The claim under test: snapshot read throughput stays near the no-writer
// baseline and read p99 escapes the crack-duration cliff that the RWMutex
// imposes, because readers never wait for a crack.
type mvccConfig struct {
	Clients int
	Rows    int
	Queries int
	Pool    int
	Sel     float64
	Seed    int64
	JSONDir string
	CPUs    []int
}

func (c mvccConfig) withDefaults() mvccConfig {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Rows <= 0 {
		c.Rows = 300_000
	}
	if c.Queries <= 0 {
		c.Queries = 1_000_000
	}
	if c.Pool <= 0 {
		c.Pool = 64
	}
	if c.Sel <= 0 {
		// Narrow point-lookup-style reads: they keep the readers'
		// allocation rate (and so the GC-assist noise floor both arms
		// share) low, which is what lets the RWMutex arm's crack stalls
		// stand out of the percentile instead of drowning in GC jitter.
		c.Sel = 0.0002
	}
	if len(c.CPUs) == 0 {
		c.CPUs = []int{1, 2, 4}
	}
	if c.JSONDir == "" {
		// The committed artifact this mode exists to produce.
		c.JSONDir = "bench"
	}
	return c
}

// mvccArm measures one (wrapper, writer on/off) configuration at the
// current GOMAXPROCS: fresh relation, warm the read pool, then Clients
// reader goroutines against the serving layer while the background writer
// (when enabled) cracks attribute C continuously.
func (c mvccConfig) mvccArm(name string, snapshot, writer bool) serve.Stats {
	rng := rand.New(rand.NewSource(c.Seed))
	domain := int64(c.Rows)
	rel := store.Build("R", c.Rows, []string{"A", "B", "C"}, func(string, int) store.Value {
		return rng.Int63n(domain) + 1
	})
	e := engine.New(engine.SelCrack, rel)

	gen := workload.New(domain, c.Seed+1)
	pool := make([]engine.Query, c.Pool)
	for i := range pool {
		pool[i] = engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: gen.Range(c.Sel)}},
			Projs: []string{"B"},
		}
	}
	// Wide ranges over C: a random lo almost always lands two fresh
	// bounds, so every writer query cracks — and the RWMutex arm runs the
	// crack AND the 2%-of-domain gather + reconstruction under the write
	// lock, a stall that never fades even once the column is finely
	// cracked. The snapshot arm publishes a fresh version per query
	// instead, exercising the whole crack/publish/reclaim cycle while
	// readers stay lock-free.
	width := domain/50 + 1
	coldC := func(rng *rand.Rand) engine.Query {
		lo := 1 + rng.Int63n(domain-width)
		return engine.Query{
			Preds: []engine.AttrPred{{Attr: "C", Pred: store.Range(lo, lo+width)}},
			Projs: []string{"B"},
		}
	}
	// Pre-split C's largest pieces so the measured window exercises the
	// steady state — a continuous stream of fresh-bounds cracks — rather
	// than the one-off cost of partitioning a virgin 8*Rows-byte column.
	warmRng := rand.New(rand.NewSource(c.Seed + 3))
	for i := 0; i < 8; i++ {
		e.Query(coldC(warmRng))
	}
	for _, q := range pool {
		e.Query(q)
	}
	runtime.GC()

	if snapshot {
		// The warm layout survives the conversion; the other arm is wrapped
		// in Concurrent by serve.New.
		e = engine.Snapshot(e)
	}
	srv := serve.New(e, serve.Options{Workers: c.Clients})
	shared := srv.Engine()

	var stop atomic.Bool
	var writerWG sync.WaitGroup
	if writer {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			wrng := rand.New(rand.NewSource(c.Seed + 7))
			for !stop.Load() {
				// Each wakeup: one fresh-bounds crack on C plus a burst of
				// insertions. The insertions are the asymmetric load the
				// snapshot layer exists for — under the RWMutex wrapper a
				// pending insertion poisons the read-only fast path of
				// every reader whose range matches it, forcing those READS
				// to ripple-merge under the write lock; under the snapshot
				// wrapper readers apply pendings virtually on the lock-free
				// path and the writer itself merges the backlog when it
				// exceeds the bound. Bursting matters on a loaded box: a
				// sleeping writer waits ~a scheduler quantum for a P after
				// each sleep, so one operation per wakeup would throttle
				// the write stream no matter the sleep interval.
				shared.Query(coldC(wrng))
				for i := 0; i < 32 && !stop.Load(); i++ {
					shared.Insert(wrng.Int63n(domain)+1, wrng.Int63n(domain)+1, wrng.Int63n(domain)+1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	perClient := c.Queries / c.Clients
	var wg sync.WaitGroup
	for g := 0; g < c.Clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				if _, _, err := srv.Do(pool[rng.Intn(len(pool))]); err != nil {
					panic(err)
				}
			}
		}(c.Seed + 100 + int64(g))
	}
	wg.Wait()
	stop.Store(true)
	writerWG.Wait()
	st := srv.Stats()
	srv.Close()
	fmt.Printf("%-28s %8d reads  %10.0f q/s  p50=%-8s p99=%-8s max=%-9s wait=%s/%d snaps=%d\n",
		name, st.Queries, st.QPS, st.P50, st.P99, st.Max, st.ReaderWait.Round(time.Microsecond), st.ReaderWaits, st.Snapshots)
	return st
}

// runMvccBench is the -mvcc entry point.
func runMvccBench(c mvccConfig) {
	c = c.withDefaults()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	fmt.Printf("== snapshot reads under a cracking writer: %d readers, %d rows, %d reads/arm, GOMAXPROCS sweep %v ==\n",
		c.Clients, c.Rows, c.Queries, c.CPUs)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var series []exp.Series
	var headline string
	for _, p := range c.CPUs {
		runtime.GOMAXPROCS(p)
		fmt.Printf("\n-- GOMAXPROCS=%d --\n", p)
		baseline := c.mvccArm(fmt.Sprintf("snapshot no-writer/p=%d", p), true, false)
		snap := c.mvccArm(fmt.Sprintf("snapshot+writer/p=%d", p), true, true)
		conc := c.mvccArm(fmt.Sprintf("concurrent+writer/p=%d", p), false, true)

		if baseline.QPS > 0 && snap.P99 > 0 {
			ratio := float64(conc.P99) / float64(snap.P99)
			kept := snap.QPS / baseline.QPS * 100
			fmt.Printf("p=%d: snapshot keeps %.0f%% of no-writer read throughput; read p99 %.1fx better than RWMutex (%v vs %v)\n",
				p, kept, ratio, snap.P99, conc.P99)
			if p > 1 {
				headline = fmt.Sprintf("at GOMAXPROCS=%d snapshot keeps %.0f%% of no-writer throughput, p99 %.1fx better than Concurrent (%v vs %v)",
					p, kept, ratio, snap.P99, conc.P99)
			}
		}
		add := func(name string, st serve.Stats) {
			series = append(series, exp.Series{
				Name: name, Y: downsample(st.Latencies, mvccMaxSamples), Errors: st.Errors, CPUs: p,
				ReaderWait: st.ReaderWait, ReaderWaits: st.ReaderWaits,
				Snapshots: st.Snapshots, Reclaimed: st.Reclaimed,
			})
		}
		add(fmt.Sprintf("snapshot no-writer/p=%d", p), baseline)
		add(fmt.Sprintf("snapshot+writer/p=%d", p), snap)
		add(fmt.Sprintf("concurrent+writer/p=%d", p), conc)
	}

	if c.JSONDir != "" {
		title := fmt.Sprintf("Snapshot reads under a continuously cracking writer (%d rows, %d readers): %s",
			c.Rows, c.Clients, headline)
		if err := exp.WriteSeriesJSONMeta(c.JSONDir, "mvcc_reads", title, "read (completion order, strided sample)",
			map[string]string{
				"rows":    fmt.Sprint(c.Rows),
				"readers": fmt.Sprint(c.Clients),
				"reads":   fmt.Sprint(c.Queries),
				"seed":    fmt.Sprint(c.Seed),
				"stride":  fmt.Sprint((c.Queries + mvccMaxSamples - 1) / mvccMaxSamples),
			}, series); err != nil {
			fmt.Printf("json export failed: %v\n", err)
		}
	}
}

// mvccMaxSamples caps each emitted latency series: a million-read run would
// otherwise produce a >100MB artifact. Strided sampling keeps the
// percentile shape; the printed stats (and the title's headline numbers)
// are still computed over every read.
const mvccMaxSamples = 25_000

// downsample returns every kth element so the result stays under max.
func downsample(y []time.Duration, max int) []time.Duration {
	if len(y) <= max {
		return y
	}
	k := (len(y) + max - 1) / max
	out := make([]time.Duration, 0, (len(y)+k-1)/k)
	for i := 0; i < len(y); i += k {
		out = append(out, y[i])
	}
	return out
}
