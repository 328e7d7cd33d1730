package engine

import (
	"crackstore/internal/crack"
	"crackstore/internal/obs"
	"crackstore/internal/sideways"
)

// Report is what a stack says about itself: one section per layer it is
// built from. A section is present (non-nil) exactly when the stack has
// that layer — Kernel for a physical design that cracks, Chunks for partial
// maps, Readers for the RWMutex guard (Concurrent and the durable engine),
// Snapshot for piece-versioned snapshot reads, Durable for a WAL — so
// absence is an answer too, and it is fixed when the stack is built. That
// is how Concurrent and Snapshot tell a stack that guards itself (Readers
// or Snapshot present) from a bare engine.
//
// Every engine or wrapper with something to say implements one method,
// Report() Report: base engines fill their own sections, a wrapper takes
// its own lock, asks the engine it wraps, and adds its own. ReportOf is the
// one entry point; the per-section accessors are views over it.
type Report struct {
	Kernel   *KernelReport
	Chunks   *sideways.ChunkStats
	Readers  *ConcStats
	Snapshot *SnapshotStats
	Durable  *DurStats
}

// ReportOf returns e's report, safe on any shared engine (wrappers lock for
// themselves; a bare engine's caller serializes, exactly as for Query). An
// engine that reports nothing — the non-cracking base designs — yields the
// empty report.
func ReportOf(e Engine) Report {
	if r, ok := e.(reporter); ok {
		return r.Report()
	}
	return Report{}
}

type reporter interface{ Report() Report }

// A wrapper that does not forward its report hides every layer below it,
// its guard included; each one is pinned here (and shard.Engine in its
// package) so a new wrapper cannot ship without the method.
var _, _, _ reporter = (*rwEngine)(nil), (*snapEngine)(nil), (*durEngine)(nil)

// KernelReport aggregates the crack-kernel counters and cracker-index
// sizes across every cracked structure an engine owns: cracker columns
// (selection cracking, bare or behind Snapshot), maps (sideways), chunk
// maps and chunks (partial).
type KernelReport struct {
	InTwo   uint64 // crack-in-two partition passes
	InThree uint64 // crack-in-three partitions
	Visited uint64 // tuples classified
	Moved   uint64 // tuples stored to a new position
	Aux     uint64 // auxiliary policy pivots
	Pieces  uint64 // pieces across all cracker indexes
	Columns uint64 // cracked structures counted into Pieces
}

func (d *KernelReport) add(s KernelReport) {
	d.InTwo += s.InTwo
	d.InThree += s.InThree
	d.Visited += s.Visited
	d.Moved += s.Moved
	d.Aux += s.Aux
	d.Pieces += s.Pieces
	d.Columns += s.Columns
}

func addChunks(d *sideways.ChunkStats, s sideways.ChunkStats) {
	d.Created += s.Created
	d.TuplesCreated += s.TuplesCreated
	d.Evicted += s.Evicted
}

// section is a one-line view of one Report section: ok is its presence.
func section[T any](s *T) (T, bool) {
	if s == nil {
		var zero T
		return zero, false
	}
	return *s, true
}

// KernelReportOf reports the aggregated kernel counters of e, or ok false
// when the engine's physical design does not crack (scan).
func KernelReportOf(e Engine) (KernelReport, bool) { return section(ReportOf(e).Kernel) }

// ConcStatsOf reports how e's readers fared against its RWMutex guard, or
// ok false when e has none (bare and snapshot engines).
func ConcStatsOf(e Engine) (ConcStats, bool) { return section(ReportOf(e).Readers) }

// SnapshotStatsOf returns the snapshot lifecycle counters of e, or ok
// false when e does not serve from snapshots.
func SnapshotStatsOf(e Engine) (SnapshotStats, bool) { return section(ReportOf(e).Snapshot) }

// DurStatsOf reports e's durability state and activity, or ok false when e
// is not durable.
func DurStatsOf(e Engine) (DurStats, bool) { return section(ReportOf(e).Durable) }

// Add folds o into r, section by section: a section r lacks is copied, one
// both have is summed by the add method next to its fields. The sharded
// engine's report is the Add-fold of its shards'.
func (r *Report) Add(o Report) {
	addSection(&r.Kernel, o.Kernel, (*KernelReport).add)
	addSection(&r.Chunks, o.Chunks, addChunks)
	addSection(&r.Readers, o.Readers, (*ConcStats).add)
	addSection(&r.Snapshot, o.Snapshot, (*SnapshotStats).add)
	addSection(&r.Durable, o.Durable, (*DurStats).add)
}

func addSection[T any](dst **T, src *T, sum func(*T, T)) {
	switch {
	case src == nil:
	case *dst == nil:
		c := *src
		*dst = &c
	default:
		sum(*dst, *src)
	}
}

// kernelSection starts a report with the kernel section every cracking
// engine has.
func kernelSection(ks crack.KernelStats, pieces, cols int) Report {
	return Report{Kernel: &KernelReport{
		InTwo:   uint64(ks.InTwo),
		InThree: uint64(ks.InThree),
		Visited: uint64(ks.Visited),
		Moved:   uint64(ks.Moved),
		Aux:     uint64(ks.Aux),
		Pieces:  uint64(pieces),
		Columns: uint64(cols),
	}}
}

// Report for the map-set engines, selection cracking's included: the kernel
// section, plus the chunk lifecycle of the storage manager over partial
// maps. Caller serializes.
func (e *mapEngine) Report() Report {
	r := kernelSection(e.st.Kernel())
	if e.kind == PartialSideways {
		cs := e.st.ChunkStats()
		r.Chunks = &cs
	}
	return r
}

// RegisterMetrics registers e's report into r as func-backed families,
// read only at scrape time — nothing here touches a query path: kernel work
// and index shape (crack_kernel_*, crack_index_*), the chunk lifecycle of
// partial maps (crack_partial_*), reader contention (crack_engine_reader_*),
// snapshot lifecycle (crack_snapshot_*), and durability (crack_wal_*,
// including a live fsync-latency histogram attached to the engine's WAL).
// A family is registered only when e's report has its section, so absence
// on /metrics is meaningful. Safe to call with a nil registry (no-op). Call
// once per registry — duplicate registration panics.
func RegisterMetrics(r *obs.Registry, e Engine) {
	if r == nil {
		return
	}
	counter := func(name, help string, f func(Report) uint64) {
		r.CounterFunc(name, help, func() uint64 { return f(ReportOf(e)) })
	}
	gauge := func(name, help string, f func(Report) float64) {
		r.GaugeFunc(name, help, func() float64 { return f(ReportOf(e)) })
	}
	have := ReportOf(e)
	if have.Kernel != nil {
		counter("crack_kernel_crack_in_two_total", "crack-in-two partition passes", func(p Report) uint64 { return p.Kernel.InTwo })
		counter("crack_kernel_crack_in_three_total", "crack-in-three partitions (both bounds in one pass)", func(p Report) uint64 { return p.Kernel.InThree })
		counter("crack_kernel_tuples_visited_total", "tuples classified by partition passes", func(p Report) uint64 { return p.Kernel.Visited })
		counter("crack_kernel_tuples_moved_total", "tuples stored to a new position by partition passes", func(p Report) uint64 { return p.Kernel.Moved })
		counter("crack_kernel_aux_pivots_total", "auxiliary policy pivots introduced", func(p Report) uint64 { return p.Kernel.Aux })
		gauge("crack_index_pieces", "pieces across all cracker indexes (layout refinement)", func(p Report) float64 { return float64(p.Kernel.Pieces) })
		gauge("crack_index_columns", "cracked structures (columns, maps, chunks)", func(p Report) float64 { return float64(p.Kernel.Columns) })
	}
	if have.Chunks != nil {
		counter("crack_partial_chunks_created_total", "chunks materialized from chunk-map areas", func(p Report) uint64 { return p.Chunks.Created })
		counter("crack_partial_chunk_tuples_created_total", "tuples fetched and gathered into new chunks", func(p Report) uint64 { return p.Chunks.TuplesCreated })
		counter("crack_partial_chunks_evicted_total", "chunks dropped to stay within the storage budget", func(p Report) uint64 { return p.Chunks.Evicted })
	}
	if have.Readers != nil {
		gauge("crack_engine_reader_wait_seconds_total", "cumulative time readers blocked behind writers", func(p Report) float64 { return p.Readers.ReaderWait.Seconds() })
		counter("crack_engine_reader_waits_total", "blocked read acquisitions", func(p Report) uint64 { return uint64(p.Readers.ReaderWaits) })
	}
	if have.Snapshot != nil {
		counter("crack_snapshot_published_total", "immutable versions published by writers", func(p Report) uint64 { return p.Snapshot.Published })
	}
	if have.Durable != nil {
		counter("crack_wal_appends_total", "WAL records appended", func(p Report) uint64 { return uint64(p.Durable.Wal.Appends) })
		counter("crack_wal_bytes_total", "WAL bytes written", func(p Report) uint64 { return uint64(p.Durable.Wal.Bytes) })
		counter("crack_wal_fsyncs_total", "fsync syscalls issued by the WAL", func(p Report) uint64 { return uint64(p.Durable.Wal.Fsyncs) })
		counter("crack_wal_group_commits_total", "appends made durable by another append's fsync", func(p Report) uint64 { return uint64(p.Durable.Wal.GroupCommits) })
		counter("crack_wal_checkpoints_total", "checkpoints written", func(p Report) uint64 { return uint64(p.Durable.Checkpoints) })
		counter("crack_wal_write_errors_total", "storage errors observed by the durable engine", func(p Report) uint64 { return uint64(p.Durable.WriteErrs) })
		gauge("crack_wal_tape_records", "crack-tape records since the relation was seeded", func(p Report) float64 { return float64(p.Durable.TapeLen) })
		gauge("crack_wal_replayed_records", "WAL records replayed on top of the checkpoint at open", func(p Report) float64 { return float64(p.Durable.ReplayedRecords) })
	}
	if d, ok := e.(*durEngine); ok {
		d.log.ObserveFsync(r.Histogram("crack_wal_fsync_seconds", "fsync syscall latency"))
	}
	r.GaugeFunc("crack_engine_storage_tuples", "auxiliary storage held by the physical design, in tuples", func() float64 { return float64(e.Storage()) })
}
