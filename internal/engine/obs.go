package engine

import (
	"crackstore/internal/crack"
	"crackstore/internal/obs"
	"crackstore/internal/partial"
)

// Observability bridge: the engine layer's pre-existing stats structs
// (kernel counters, snapshot lifecycle, reader contention, durability)
// registered into an obs.Registry as scrape-time func-backed families.
// Nothing here touches a query path — every closure runs only when
// /metrics is scraped.

// KernelReport aggregates the crack-kernel counters and cracker-index
// sizes across every cracked structure an engine owns: cracker columns
// (selection cracking), maps (sideways), chunk maps and chunks
// (partial), or piece-versioned snapshot columns.
type KernelReport struct {
	InTwo   uint64 // crack-in-two partition passes
	InThree uint64 // crack-in-three partitions
	Visited uint64 // tuples classified
	Moved   uint64 // tuples stored to a new position
	Aux     uint64 // auxiliary policy pivots
	Pieces  uint64 // pieces across all cracker indexes
	Columns uint64 // cracked structures counted into Pieces
}

// KernelObservable is implemented by engines (and wrappers) that can
// report kernel work. Wrappers take their own locks, so the exported
// entry point KernelReportOf is safe on any shared engine; the raw
// per-engine implementations assume the caller serializes, exactly like
// Query.
type KernelObservable interface {
	KernelReport() (KernelReport, bool)
}

// KernelReportOf reports the aggregated kernel counters of e, or ok
// false when the engine's physical design does not crack (scan,
// presorted, rowstore).
func KernelReportOf(e Engine) (KernelReport, bool) {
	if o, ok := e.(KernelObservable); ok {
		return o.KernelReport()
	}
	return KernelReport{}, false
}

// SnapObservable is implemented by engines serving from piece-versioned
// snapshots (and wrappers over them).
type SnapObservable interface {
	SnapshotStats() SnapshotStats
}

// SnapshotStatsOf returns the snapshot lifecycle counters of e, or ok
// false when e does not serve from snapshots.
func SnapshotStatsOf(e Engine) (SnapshotStats, bool) {
	if o, ok := e.(SnapObservable); ok {
		return o.SnapshotStats(), true
	}
	return SnapshotStats{}, false
}

// KernelReport implements KernelObservable for the selection-cracking
// engine. Caller serializes (the shared wrappers do).
func (e *selCrackEngine) KernelReport() (KernelReport, bool) {
	var r KernelReport
	for _, c := range e.cols {
		addKernel(&r, c.P.Stats)
		r.Pieces += uint64(c.P.Idx.Pieces())
		r.Columns++
	}
	return r, true
}

// KernelReport implements KernelObservable for the map-set engines.
// Caller serializes.
func (e *mapEngine) KernelReport() (KernelReport, bool) {
	ks, pieces, cols := e.st.Kernel()
	var r KernelReport
	addKernel(&r, ks)
	r.Pieces, r.Columns = uint64(pieces), uint64(cols)
	return r, true
}

// ChunkObservable is implemented by engines over partial maps (and their
// wrappers): the chunk lifecycle of the storage manager.
type ChunkObservable interface {
	ChunkStats() (partial.ChunkStats, bool)
}

// ChunkStatsOf reports the chunk lifecycle counters of e, or ok false when
// e does not keep partial maps.
func ChunkStatsOf(e Engine) (partial.ChunkStats, bool) {
	if o, ok := e.(ChunkObservable); ok {
		return o.ChunkStats()
	}
	return partial.ChunkStats{}, false
}

// ChunkStats implements ChunkObservable for the map-set engines. Caller
// serializes.
func (e *mapEngine) ChunkStats() (partial.ChunkStats, bool) {
	st, ok := e.st.(*partial.Store)
	if !ok {
		return partial.ChunkStats{}, false
	}
	return st.ChunkStats(), true
}

// ChunkStats forwards under the read lock, like KernelReport.
func (s *rwEngine) ChunkStats() (partial.ChunkStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ChunkStatsOf(s.e)
}

// KernelReport implements KernelObservable for the snapshot engine:
// per-column counters are atomics and the cols map is copy-on-write, so
// no lock is needed.
func (e *snapEngine) KernelReport() (KernelReport, bool) {
	var r KernelReport
	for _, c := range *e.cols.Load() {
		addKernel(&r, c.KernelStats())
		r.Pieces += uint64(c.Pieces())
		r.Columns++
	}
	return r, true
}

// KernelReport forwards under the read lock. Deliberately bypasses
// rlock(): a metrics scrape must not count as reader contention.
func (s *rwEngine) KernelReport() (KernelReport, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return KernelReportOf(s.e)
}

func addKernel(r *KernelReport, ks crack.KernelStats) {
	r.InTwo += uint64(ks.InTwo)
	r.InThree += uint64(ks.InThree)
	r.Visited += uint64(ks.Visited)
	r.Moved += uint64(ks.Moved)
	r.Aux += uint64(ks.Aux)
}

// RegisterMetrics registers e's observable stats into r as func-backed
// families, read only at scrape time: kernel work and index shape
// (crack_kernel_*, crack_index_*), the chunk lifecycle of partial maps
// (crack_partial_*), reader contention and snapshot lifecycle
// (crack_engine_*, crack_snapshot_*), and durability
// (crack_wal_*, including a live fsync-latency histogram attached to the
// engine's WAL). Families whose layer the engine does not have are not
// registered, so their absence on /metrics is meaningful. Safe to call
// with a nil registry (no-op). Call once per registry — duplicate
// registration panics.
func RegisterMetrics(r *obs.Registry, e Engine) {
	if r == nil {
		return
	}
	if _, ok := KernelReportOf(e); ok {
		kr := func() KernelReport { k, _ := KernelReportOf(e); return k }
		r.CounterFunc("crack_kernel_crack_in_two_total", "crack-in-two partition passes", func() uint64 { return kr().InTwo })
		r.CounterFunc("crack_kernel_crack_in_three_total", "crack-in-three partitions (both bounds in one pass)", func() uint64 { return kr().InThree })
		r.CounterFunc("crack_kernel_tuples_visited_total", "tuples classified by partition passes", func() uint64 { return kr().Visited })
		r.CounterFunc("crack_kernel_tuples_moved_total", "tuples stored to a new position by partition passes", func() uint64 { return kr().Moved })
		r.CounterFunc("crack_kernel_aux_pivots_total", "auxiliary policy pivots introduced", func() uint64 { return kr().Aux })
		r.GaugeFunc("crack_index_pieces", "pieces across all cracker indexes (layout refinement)", func() float64 { return float64(kr().Pieces) })
		r.GaugeFunc("crack_index_columns", "cracked structures (columns, maps, chunks)", func() float64 { return float64(kr().Columns) })
	}
	if _, ok := ChunkStatsOf(e); ok {
		cs := func() partial.ChunkStats { c, _ := ChunkStatsOf(e); return c }
		r.CounterFunc("crack_partial_chunks_created_total", "chunks materialized from chunk-map areas", func() uint64 { return cs().Created })
		r.CounterFunc("crack_partial_chunk_tuples_created_total", "tuples fetched and gathered into new chunks", func() uint64 { return cs().TuplesCreated })
		r.CounterFunc("crack_partial_chunks_evicted_total", "chunks dropped to stay within the storage budget", func() uint64 { return cs().Evicted })
		r.CounterFunc("crack_partial_chunk_buffers_recycled_total", "chunk columns drawn from the free list", func() uint64 { return cs().BuffersRecycled })
		r.CounterFunc("crack_partial_chunk_buffers_allocated_total", "chunk columns allocated because the free list had none of the size class", func() uint64 { return cs().BuffersAllocated })
	}
	if _, ok := ConcStatsOf(e); ok {
		cs := func() ConcStats { c, _ := ConcStatsOf(e); return c }
		r.GaugeFunc("crack_engine_reader_wait_seconds_total", "cumulative time readers blocked behind writers (zero for snapshot reads)", func() float64 { return cs().ReaderWait.Seconds() })
		r.CounterFunc("crack_engine_reader_waits_total", "blocked read acquisitions", func() uint64 { return uint64(cs().ReaderWaits) })
		r.CounterFunc("crack_snapshot_published_total", "immutable versions published by writers", func() uint64 { return uint64(cs().Snapshots) })
		r.CounterFunc("crack_snapshot_reclaimed_total", "retired versions reclaimed after readers exited", func() uint64 { return uint64(cs().Reclaimed) })
	}
	if _, ok := SnapshotStatsOf(e); ok {
		ss := func() SnapshotStats { s, _ := SnapshotStatsOf(e); return s }
		r.GaugeFunc("crack_snapshot_limbo", "retired versions held back by live readers", func() float64 { return float64(ss().Limbo) })
		r.GaugeFunc("crack_snapshot_readers", "currently pinned snapshot readers", func() float64 { return float64(ss().Readers) })
	}
	if _, ok := DurStatsOf(e); ok {
		ds := func() DurStats { d, _ := DurStatsOf(e); return d }
		r.CounterFunc("crack_wal_appends_total", "WAL records appended", func() uint64 { return uint64(ds().Wal.Appends) })
		r.CounterFunc("crack_wal_bytes_total", "WAL bytes written", func() uint64 { return uint64(ds().Wal.Bytes) })
		r.CounterFunc("crack_wal_fsyncs_total", "fsync syscalls issued by the WAL", func() uint64 { return uint64(ds().Wal.Fsyncs) })
		r.CounterFunc("crack_wal_group_commits_total", "appends made durable by another append's fsync", func() uint64 { return uint64(ds().Wal.GroupCommits) })
		r.CounterFunc("crack_wal_checkpoints_total", "checkpoints written", func() uint64 { return uint64(ds().Checkpoints) })
		r.CounterFunc("crack_wal_write_errors_total", "storage errors observed by the durable engine", func() uint64 { return uint64(ds().WriteErrs) })
		r.GaugeFunc("crack_wal_tape_records", "crack-tape records since the relation was seeded", func() float64 { return float64(ds().TapeLen) })
		r.GaugeFunc("crack_wal_replayed_records", "WAL records replayed on top of the checkpoint at open", func() float64 { return float64(ds().ReplayedRecords) })
	}
	if d, ok := e.(*durEngine); ok {
		d.log.ObserveFsync(r.Histogram("crack_wal_fsync_seconds", "fsync syscall latency"))
	}
	r.GaugeFunc("crack_engine_storage_tuples", "auxiliary storage held by the physical design, in tuples", func() float64 { return float64(e.Storage()) })
}
