package main

import "slices"

// The benchmark's vocabulary: workload names, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// root of the repository repeats the gated part of it; bench_test.go keeps
// the two in step.

// metricSpec names one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression. 0 means the
	// metric is a count that must repeat exactly.
	Bound float64
	// Gated end-to-end metrics are the ones BENCHMARK.json lists. Its format
	// wants each of them from every workload and never 0, so only metrics
	// reported on all seven can be gated there; -compare gates the rest.
	Gated bool
	// On lists the workloads the metric is reported on; nil means all.
	On []string
	// Demoted lists the workloads on which the metric did not repeat within
	// its bound on the 2-core box: there it stays in the output and in
	// -compare's table, but its verdict fails no comparison. README.md
	// records each with the spread that was seen.
	Demoted []string
}

func (m metricSpec) on(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

func (m metricSpec) demoted(workload string) bool {
	return slices.Contains(m.Demoted, workload)
}

const (
	wExploreCold   = "explore-cold"
	wExploreBudget = "explore-budget"
	wUpdateMix     = "update-mix"
	wServeWarm     = "serve-warm"
	wServeChurn    = "serve-churn"
	wRemoteWarm    = "remote-warm"
	wDurableChurn  = "durable-churn"
)

var (
	allWorkloads = []string{wExploreCold, wExploreBudget, wUpdateMix, wServeWarm, wServeChurn, wRemoteWarm, wDurableChurn}
	episodic4    = []string{wExploreCold, wExploreBudget, wUpdateMix, wDurableChurn}
	explore2     = []string{wExploreCold, wExploreBudget}
	durableOnly  = []string{wDurableChurn}
)

// endToEnd is what a user of the store sees. README.md defines each, and
// has the spreads behind every bound and demotion: the three gated metrics
// carry the bound the driver's steadiness rule asks for on this box, the
// others the issue's tenth — which no timing here repeated within.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "episode_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: episodic4, Demoted: episodic4},
	{Name: "first_query_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: explore2, Demoted: explore2},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.10, Demoted: allWorkloads},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.10, On: durableOnly, Demoted: durableOnly},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.10, On: durableOnly, Demoted: durableOnly},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: durableOnly, Demoted: durableOnly},
	{Name: "aux_tuples_per_row", Unit: "ratio", Better: "lower", Bound: 0,
		On: []string{wExploreCold, wExploreBudget, wUpdateMix}, Demoted: []string{wExploreBudget}},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0},
}

func lower(unit string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricSpec {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// perLayer is the ledger: one group per module of the repository, outside
// in. Every workload's traced run emits every one of them; a metric whose
// layer the workload does not exercise reads 0, which is itself the
// evidence that the workload bypasses the layer.
var perLayer = concat(
	// crack kernel + cracker index
	lower("count", "crack.visited_per_query", "crack.moved_per_query", "crack.cracks_per_query"),
	higher("count", "crack.pieces_final"),
	lower("ns", "crack.crack_ns_per_tuple", "crack.copy_ns_per_tuple", "crack.ripple_ns_per_update",
		"crackindex.piecefor_ns"),
	// map layers
	lower("ns", "sideways.multiselect_ns"),
	lower("count", "sideways.sets", "sideways.maps", "sideways.tape_len_max", "sideways.align_lag_max",
		"sideways.storage_tuples"),
	higher("ratio", "sideways.ro_hit_frac"),
	lower("ns", "partial.multiselect_ns"),
	lower("count", "partial.storage_tuples", "partial.chunkmap_tuples", "partial.areas"),
	higher("ratio", "partial.budget_headroom_frac"),
	// engine and its wrappers
	lower("ns", "engine.query_ns", "engine.self_ns"),
	lower("ratio", "engine.cost_sel_frac"),
	lower("ns", "engine.concurrent.self_ns", "engine.snapshot.self_ns", "engine.durable.self_ns", "shard.self_ns"),
	lower("ratio", "engine.concurrent.reader_wait_frac"),
	lower("count", "engine.concurrent.reader_waits"),
	// serving, wire, network, client
	lower("ns", "serve.self_ns", "serve.queue_ns"),
	lower("count", "serve.sheds", "serve.errors"),
	lower("us", "serve.reader_p999_us", "serve.churn_late_p99_us"),
	lower("ns", "wire.req_encode_ns", "wire.req_decode_ns", "wire.resp_encode_ns", "wire.resp_decode_ns"),
	lower("count", "wire.req_bytes_per_query", "wire.resp_bytes_per_query"),
	lower("ns", "netserve.tcp_sched_ns"),
	lower("count", "netserve.frames_per_query", "netserve.bytes_written_per_query"),
	lower("ns", "client.query_ns"),
	lower("us", "client.ping_rtt_us"),
	lower("count", "client.retries", "client.redials", "client.hedges"),
	// write-ahead log and the durable wrapper
	lower("count", "wal.bytes_per_write", "wal.fsyncs_per_write"),
	higher("ratio", "wal.group_commit_frac"),
	lower("count", "wal.write_calls_per_write", "wal.write_bytes_mean"),
	lower("us", "wal.fsync_p50_us", "wal.fsync_p99_us"),
	lower("ns", "wal.codec_ns"),
	lower("count", "wal.tape_records", "wal.replayed_records", "wal.replayed_bytes", "engine.durable.checkpoints"),
	// process
	lower("count", "proc.alloc_bytes_per_op", "proc.gc_cycles"),
	lower("MB", "proc.heap_inuse_mb_end"),
	lower("ratio", "trace.overhead_frac"),
)

// workloadSpec registers one workload. run measures it into res; ledger,
// run only with -trace 1, adds the per-layer times. Listed workloads are the
// ones BENCHMARK.json names, which an acceptance driver runs and gates: the
// driver's time limit holds four runs of refSeconds each, not seven, and a
// shorter run does not average out this box's slow stretches. The others
// run in the full suite and under -workload, and -compare gates them.
type workloadSpec struct {
	Name   string
	Why    string
	Listed bool
	run    func(b *bench, res *result)
	ledger func(b *bench, res *result)
}

var workloads = []workloadSpec{
	{wExploreCold, "ad-hoc exploration on an untouched sideways engine: crack kernel, map creation, tape alignment and tuple reconstruction do all the work",
		true, runExploreCold, ledgerExploreCold},
	{wExploreBudget, "the same kernel under partial maps with a 3x-rows storage budget: chunk maps, areas and eviction; bypasses the full-map layer",
		true, runExploreBudget, ledgerExploreBudget},
	{wUpdateMix, "reads beside HFLV and LFHV updates on a bare sideways engine: pending-update merges and ripple insert/delete instead of plain cracks",
		false, runUpdateMix, ledgerUpdateMix},
	{wServeWarm, "two closed-loop clients on a pre-cracked pool through serve: kernel does zero work, time goes to index lookup, materialisation, lock and admission",
		false, runServeWarm, ledgerServeWarm},
	{wServeChurn, "a warm reader beside a paced churner that cracks cold ranges and writes: reader stalls behind the wrapper's write lock",
		false, runServeChurn, ledgerServeChurn},
	{wRemoteWarm, "the serve-warm engine and pool over loopback TCP: wire codec, netserve goroutines and client do most of the work; bypasses the kernel",
		true, runRemoteWarm, ledgerRemoteWarm},
	{wDurableChurn, "cold queries and acknowledged writes on a WAL-backed engine, then a simulated crash and recovery: wal append/fsync, crack tape, replay",
		true, runDurableChurn, ledgerDurableChurn},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
