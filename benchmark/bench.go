package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// config is everything that decides what a run does. It is stamped into
// the env block of every JSON summary, and -compare refuses to set two
// summaries side by side when theirs differ.
type config struct {
	rows     int
	seed     int64
	seconds  float64 // run length the episode counts and durations scale to
	smoke    bool    // self-test scale: tiny relation, two episodes, 300 ms
	trace    bool
	dataDir  string
	traceOut string
}

// refSeconds is the run length the episode constants in workloads.go were
// calibrated for on the 2-core box, and BENCHMARK.json's run_seconds: a
// workload's whole run — set-ups, timed sections and oracle checks — takes
// about that long. Every count and duration scales with seconds/refSeconds;
// nothing is tuned per workload at run time.
const refSeconds = 30

// episodes scales a calibrated episode count to the configured run length.
// A traced run splits its time between an untraced and a traced pass.
func (c config) episodes(calibrated int) int {
	if c.smoke {
		return 2
	}
	n := int(float64(calibrated)*c.share()/refSeconds + 0.5)
	return max(n, 2)
}

// perEpisode is the length of an episode's stream: the calibrated one, or
// a tenth of it at self-test scale.
func (c config) perEpisode(calibrated int) int {
	if c.smoke {
		return calibrated / 10
	}
	return calibrated
}

// duration is the timed wall length of the two-client workloads: four
// fifths of the run, the rest being set-ups, warm-up and the oracle.
func (c config) duration() time.Duration {
	if c.smoke {
		return 300 * time.Millisecond
	}
	return time.Duration(0.8 * c.share() * float64(time.Second))
}

// overrun is how long a single-client pass may take before it stops
// starting episodes. The episode counts are constants, so a pass on a slow
// machine takes longer; this keeps a run inside the driver's time limit.
func (c config) overrun() time.Duration {
	return time.Duration(1.15 * c.share() * float64(time.Second))
}

func (c config) warmup() time.Duration { return c.duration() / 10 }

// poolPasses is how many passes over the pool price a ledger boundary.
func (c config) poolPasses() int {
	if c.smoke {
		return 5
	}
	return ledgerPoolPasses
}

func (c config) share() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// bench carries one invocation's shared state: the generated relation and,
// in a traced run, the spans.
type bench struct {
	cfg      config
	base     *store.Relation
	datagenS []float64 // seconds per data generation, one per repeat
	tr       *tracer   // nil unless the current pass is traced
	out      io.Writer // human-readable report
}

// datagenRepeats is how often the relation is generated: set-up time is
// reported as a median of repeats so one descheduled run does not move it.
const datagenRepeats = 3

func newBench(cfg config, out io.Writer) *bench {
	b := &bench{cfg: cfg, out: out}
	for i := 0; i < datagenRepeats; i++ {
		t0 := time.Now()
		b.base = buildRelation(cfg.rows, cfg.seed)
		b.datagenS = append(b.datagenS, time.Since(t0).Seconds())
	}
	return b
}

// gen derives a query-stream seed from the run seed, a workload tag and an
// episode or client number, so streams are independent of each other and
// identical between the passes of a traced run.
func (b *bench) streamSeed(tag string, n int) int64 {
	h := uint64(b.cfg.seed)*0x9E3779B97F4A7C15 + uint64(n)*0xBF58476D1CE4E5B9
	for _, c := range tag {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(store.Mix64(h) >> 1)
}

// value is one reported measurement.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one workload reports.
type result struct {
	Workload  string           `json:"name"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Faults    []string         `json:"faults,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
}

func specOf(table []metricSpec, name string) metricSpec {
	for _, m := range table {
		if m.Name == name {
			return m
		}
	}
	panic("benchmark: metric " + name + " is not in spec.go")
}

// e2e records an end-to-end metric, if spec.go lists it for the workload;
// samples is how many timed operations (or episodes) stand behind it.
func (r *result) e2e(name string, v float64, samples int) {
	if m := specOf(endToEnd, name); m.on(r.Workload) {
		r.EndToEnd[name] = value{Value: v, Unit: m.Unit, Samples: samples}
	}
}

// layer records a per-layer metric.
func (r *result) layer(name string, v float64) {
	r.PerLayer[name] = value{Value: v, Unit: specOf(perLayer, name).Unit}
}

// fault counts n failed operations of one kind against the workload.
func (r *result) fault(n int, what string) {
	if n > 0 {
		r.Failed += n
		r.Faults = append(r.Faults, fmt.Sprintf("%d x %s", n, what))
	}
}

// finish derives fail_frac and fills every per-layer metric the workload
// did not touch with 0.
func (r *result) finish() {
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.e2e("fail_frac", frac, r.Attempted)
	for _, m := range perLayer {
		if _, ok := r.PerLayer[m.Name]; !ok {
			r.layer(m.Name, 0)
		}
	}
}

// print writes the workload's metrics by name, one per line.
func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "== %s: attempted=%d failed=%d\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Faults {
		fmt.Fprintf(w, "   FAULT %s\n", f)
	}
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			gate := "      "
			if m.Gated {
				gate = "gated "
			}
			fmt.Fprintf(w, "   %s%-22s %16.4f %-6s n=%d\n", gate, m.Name, v.Value, v.Unit, v.Samples)
		}
	}
	if !traced {
		return
	}
	for _, m := range perLayer {
		if v := r.PerLayer[m.Name]; v.Value != 0 {
			fmt.Fprintf(w, "   layer %-38s %16.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// contractLine is the last line of standard output: the object the
// acceptance driver parses. Untraced it carries the gated end-to-end
// metrics, traced every per-layer metric.
func (r *result) contractLine(traced bool) string {
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			v := r.PerLayer[m.Name]
			metrics[m.Name] = value{Value: v.Value, Unit: v.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.Gated {
				v := r.EndToEnd[m.Name]
				metrics[m.Name] = value{Value: v.Value, Unit: v.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// freshHeap collects garbage and hands the freed pages back to the OS. It
// runs before every set-up, so that each fresh engine and its first queries
// pay the page faults a fresh process would; otherwise some reuse pages an
// earlier episode left mapped and some do not, and first_query_ms and
// episode_ms split into two modes.
func freshHeap() { debug.FreeOSMemory() }

// memMark snapshots the allocator so a workload can report what its timed
// section allocated. ReadMemStats stops the world: call it only between
// timed sections.
type memMark struct{ m runtime.MemStats }

func markMem() *memMark {
	var k memMark
	runtime.ReadMemStats(&k.m)
	return &k
}

// report records the proc.* metrics for ops operations since the mark.
func (k *memMark) report(r *result, ops int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if ops > 0 {
		r.layer("proc.alloc_bytes_per_op", float64(now.TotalAlloc-k.m.TotalAlloc)/float64(ops))
	}
	r.layer("proc.gc_cycles", float64(now.NumGC-k.m.NumGC))
	r.layer("proc.heap_inuse_mb_end", float64(now.HeapInuse)/(1<<20))
}

// target is one layer boundary: the calls a client of that layer makes.
// The same op stream is run against different targets to price each layer.
type target struct {
	layer  string // span name, e.g. "engine.Query"
	parent string // the boundary above it in the stack, "" at the top
	query  func(q engine.Query) (engine.Result, engine.Cost, error)
	insert func(vals ...store.Value) int
	delete func(key int)
}

func engineTarget(layer, parent string, e engine.Engine) target {
	return target{
		layer: layer, parent: parent,
		query: func(q engine.Query) (engine.Result, engine.Cost, error) {
			res, cost := e.Query(q)
			return res, cost, nil
		},
		insert: e.Insert,
		delete: e.Delete,
	}
}

// episode is what one run of an op stream against a fresh target yields.
type episode struct {
	lat     []int64 // ns per op, parallel to the stream; -1 for a failed op
	kept    []kept
	queries int // successful queries so far
	failed  int
	selNs   int64 // sum of Cost.Sel over the queries
	costNs  int64 // sum of Cost.Total()
	setupNs int64
	storage int
}

// runStream executes ops on t one at a time, each timed by its own clock
// pair into ep.lat, keeping op 0's and every oracleEvery-th query's result.
func (b *bench) runStream(t target, ops []op, ep *episode) {
	ep.lat = make([]int64, len(ops))
	ep.kept = make([]kept, 0, len(ops)/oracleEvery+2)
	b.runOps(t, ops, 0, len(ops), ep)
}

// runOps executes ops[lo:hi] of a stream whose episode runStream (or the
// ledger's interleaved replay) has sized.
func (b *bench) runOps(t target, ops []op, lo, hi int, ep *episode) {
	for i := lo; i < hi; i++ {
		o := &ops[i]
		t0 := time.Now()
		switch o.kind {
		case opQuery:
			res, cost, err := t.query(o.q)
			ep.lat[i] = int64(time.Since(t0))
			if err != nil {
				ep.failed++
				ep.lat[i] = -1
				break
			}
			ep.selNs += int64(cost.Sel)
			ep.costNs += int64(cost.Total())
			if ep.queries%oracleEvery == 0 {
				ep.kept = append(ep.kept, kept{at: i, res: res})
			}
			ep.queries++
		case opInsert:
			key := t.insert(o.vals...)
			ep.lat[i] = int64(time.Since(t0))
			if key != o.key {
				ep.failed++
				ep.lat[i] = -1
			}
		case opDelete:
			t.delete(o.key)
			ep.lat[i] = int64(time.Since(t0))
		}
		b.tr.add(t.layer, t.parent, i, t0, ep.lat[i])
	}
}

// sumLat adds up the successful ops' latencies.
func (ep *episode) sumLat() (ns int64) {
	for _, l := range ep.lat {
		if l >= 0 {
			ns += l
		}
	}
	return ns
}

// summarizeEpisodes turns per-episode samples into the end-to-end metrics
// of a single-client workload. ops is the stream all episodes share the
// shape of (kinds are identical across episodes; bounds differ).
func (b *bench) summarizeEpisodes(r *result, eps []*episode, ops []op) {
	var episodeMs, firstMs, setupS, aux []float64
	var queryNs, writeNs []int64
	for _, ep := range eps {
		episodeMs = append(episodeMs, float64(ep.sumLat())/1e6)
		firstMs = append(firstMs, float64(ep.lat[0])/1e6)
		setupS = append(setupS, float64(ep.setupNs)/1e9)
		aux = append(aux, float64(ep.storage)/float64(b.cfg.rows))
		for i, l := range ep.lat {
			r.Attempted++
			switch {
			case l < 0:
			case ops[i].kind == opQuery:
				queryNs = append(queryNs, l)
			default:
				writeNs = append(writeNs, l)
			}
		}
		r.fault(ep.failed, "operation failed or returned an unexpected key")
	}
	r.e2e("setup_s", median(b.datagenS)+median(setupS), len(setupS))
	r.e2e("episode_ms", median(episodeMs), len(eps))
	r.e2e("first_query_ms", median(firstMs), len(eps))
	r.e2e("ops_per_s", float64(len(ops))/(median(episodeMs)/1e3), len(eps)*len(ops))
	r.e2e("aux_tuples_per_row", median(aux), len(eps))
	reportLatency(r, "query", queryNs)
	reportLatency(r, "write", writeNs)
}

// reportLatency records <kind>_p50_us and, given enough samples for ten
// to lie beyond it, <kind>_p99_us.
func reportLatency[T int64 | uint32](r *result, kind string, ns []T) {
	slices.Sort(ns)
	r.e2e(kind+"_p50_us", float64(percentile(ns, 50))/1e3, len(ns))
	if len(ns) >= minTailSamples {
		r.e2e(kind+"_p99_us", float64(percentile(ns, 99))/1e3, len(ns))
	}
}

// kernelCounts records the crack.* counts: kernel work per query over the
// measured section and the piece count it ended with.
func kernelCounts(r *result, delta engine.KernelReport, pieces uint64, queries int) {
	q := float64(max(queries, 1))
	r.layer("crack.visited_per_query", float64(delta.Visited)/q)
	r.layer("crack.moved_per_query", float64(delta.Moved)/q)
	r.layer("crack.cracks_per_query", float64(delta.InTwo+delta.InThree)/q)
	r.layer("crack.pieces_final", float64(pieces))
}

func kernelDelta(after, before engine.KernelReport) engine.KernelReport {
	return engine.KernelReport{
		InTwo:   after.InTwo - before.InTwo,
		InThree: after.InThree - before.InThree,
		Visited: after.Visited - before.Visited,
		Moved:   after.Moved - before.Moved,
	}
}

func kernelSum(a, b engine.KernelReport) engine.KernelReport {
	return engine.KernelReport{
		InTwo:   a.InTwo + b.InTwo,
		InThree: a.InThree + b.InThree,
		Visited: a.Visited + b.Visited,
		Moved:   a.Moved + b.Moved,
	}
}

// countQueries returns how many ops of the stream are queries.
func countQueries(ops []op) (n int) {
	for _, o := range ops {
		if o.kind == opQuery {
			n++
		}
	}
	return n
}

// scratchDir returns a fresh directory under the data dir.
func (b *bench) scratchDir(name string) (string, error) {
	if err := os.MkdirAll(b.cfg.dataDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(b.cfg.dataDir, name+"-")
}
