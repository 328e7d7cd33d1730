package engine

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync selects the WAL durability mode (see wal.SyncMode). The default
	// SyncGroup acks only after an fsync covers the record, sharing fsyncs
	// across concurrent writers.
	Sync wal.SyncMode
	// CheckpointBytes rotates the WAL and writes a fresh checkpoint when
	// the live segment exceeds this size. 0 picks 64 MiB; negative
	// disables automatic checkpoints (tests and the crash matrix use this
	// so the on-disk image stays a single scannable segment).
	CheckpointBytes int64
	// Policy is the adaptive cracking policy the engine is built with —
	// both fresh stores and recovered ones, where it is in place before
	// tape replay: a policy-steered tape must be replayed under the same
	// policy to reproduce the cuts, so reopen with the policy the store was
	// created with. The zero value cracks at query bounds only.
	Policy crack.Policy
	// Wrap, if set, wraps the WAL segment file before use; faultnet's
	// WrapFile injects torn writes, short writes, and fsync errors here.
	Wrap func(wal.File) wal.File
}

func (o DurableOptions) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return 64 << 20
	}
	return o.CheckpointBytes
}

// DurStats is the Durable section of a Report: durability state and
// activity of a durable engine.
type DurStats struct {
	// Recovered is true when the open found an existing store on disk
	// (false for a fresh directory).
	Recovered bool
	// CleanShutdown is true when recovery found a clean-shutdown marker
	// matching the on-disk state exactly: nothing torn, nothing to replay.
	CleanShutdown bool
	// ReplayedRecords / ReplayedBytes count the WAL tail applied on top of
	// the checkpoint during recovery (segment-marker records excluded).
	ReplayedRecords int
	ReplayedBytes   int64
	// TruncatedBytes is the torn tail discarded at open — bytes of a
	// record that was mid-write when the previous process died, through
	// its last non-zero byte (the preallocated zeros after it are not
	// torn, just unwritten).
	TruncatedBytes int64
	// RecoveryTime is the wall time of the whole open-and-replay.
	RecoveryTime time.Duration
	// TapeLen is the crack tape length (reorganizing queries recorded
	// since the relation was seeded; the warmth a restart inherits).
	TapeLen int
	// TapeSkipped counts crack-tape records recovery dropped because they
	// name an attribute the recovered relation does not have (images
	// written by binaries that recorded a query before running it).
	TapeSkipped int
	// Checkpoints counts checkpoints written by this process.
	Checkpoints int64
	// WriteErrs counts writes refused or failed because of storage errors
	// (the log poisons on the first such error and stops acking).
	WriteErrs int64
	// WalBytes is the live segment's record bytes (its file runs up to one
	// preallocation step longer until a clean close trims it); Wal holds
	// the log's counters.
	WalBytes int64
	Wal      wal.Stats
}

// add sums the counters; of several parts, the whole recovered if any part
// did, and shut down cleanly only if all did.
func (d *DurStats) add(s DurStats) {
	d.Recovered = d.Recovered || s.Recovered
	d.CleanShutdown = d.CleanShutdown && s.CleanShutdown
	d.ReplayedRecords += s.ReplayedRecords
	d.ReplayedBytes += s.ReplayedBytes
	d.TruncatedBytes += s.TruncatedBytes
	d.RecoveryTime += s.RecoveryTime
	d.TapeLen += s.TapeLen
	d.TapeSkipped += s.TapeSkipped
	d.Checkpoints += s.Checkpoints
	d.WriteErrs += s.WriteErrs
	d.WalBytes += s.WalBytes
	d.Wal.Appends += s.Wal.Appends
	d.Wal.Bytes += s.Wal.Bytes
	d.Wal.Fsyncs += s.Wal.Fsyncs
	d.Wal.GroupCommits += s.Wal.GroupCommits
}

// durEngine makes any engine durable: every acked Insert/Delete is written
// to a CRC-framed WAL before it is applied, reorganizing queries append
// their shape to a crack tape, and periodic checkpoints materialize base
// columns + tombstones + tape into an atomically-replaced snapshot with a
// fresh WAL segment.
//
// It is the Concurrent guard plus a journal: the embedded rwEngine supplies
// the lock and the two-phase Query, and calls journalCrack after every
// query that reorganized; durEngine overrides only Insert and Delete.
// Holding the guard's write lock across log-append and in-memory apply
// makes log order equal apply order, which is what lets replay reproduce
// identical tuple keys.
type durEngine struct {
	rwEngine
	rel *store.Relation

	dir   string
	width int
	opts  DurableOptions

	log   *wal.Log
	cpSeq uint64

	tape []wal.Record // cumulative crack tape since seed

	checkpoints atomic.Int64
	writeErrs   atomic.Int64

	open DurStats // recovery-time fields, fixed after OpenDurable
}

// OpenDurable opens (or creates) a durable engine of the given kind backed
// by data directory dir. For a fresh directory, rel seeds the store: its
// contents become checkpoint 0, so the seed itself never needs the WAL.
// For an existing directory, rel is ignored — the relation is rebuilt from
// the checkpoint, the crack tape is replayed to re-crack the recovered
// layout warm, and the WAL segment tail is applied on top (torn tail
// truncated). The returned engine is guarded (its report has a Readers
// section) and needs no Concurrent wrapper.
func OpenDurable(kind Kind, rel *store.Relation, dir string, opts DurableOptions) (Engine, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cp, err := wal.LoadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	walOpts := wal.Options{Sync: opts.Sync, Wrap: opts.Wrap}
	build := func(rel *store.Relation) Engine { return NewWith(kind, rel, Options{Policy: opts.Policy}) }

	if cp == nil {
		// Fresh store: checkpoint the seed relation, then open segment 0
		// empty (a leftover segment 0 has no checkpoint to anchor it). A
		// crash between the two leaves a checkpoint whose segment is
		// missing; recovery opens it empty, so that order is safe, while
		// the reverse order could leave a segment with records but no
		// checkpoint to anchor them.
		d := newDurEngine(build(rel), rel, dir, opts)
		if err := wal.WriteCheckpoint(dir, d.checkpoint(0)); err != nil {
			return nil, err
		}
		log, err := wal.OpenLog(wal.SegmentPath(dir, 0), 0, walOpts)
		if err != nil {
			return nil, err
		}
		d.log = log
		if err := log.Append(wal.Record{Type: wal.RecCheckpoint, Seq: 0}); err != nil {
			log.Close()
			return nil, err
		}
		d.open.RecoveryTime = time.Since(t0)
		return d, nil
	}

	// Recovery. The clean marker is consumed up front (whatever happens
	// next, a future crash must not look clean), then validated against
	// the on-disk state it described.
	mSeq, mSize, hasMarker := wal.TakeCleanMarker(dir)

	rrel := store.NewRelation(cp.Name, cp.Attrs...)
	for i, attr := range cp.Attrs {
		rrel.MustColumn(attr).Vals = cp.Cols[i]
	}
	d := newDurEngine(build(rrel), rrel, dir, opts)
	d.cpSeq = cp.Seq
	for _, k := range cp.Dead {
		d.e.Delete(k)
	}

	// Replay the tape: re-running the recorded reorganizing queries cracks
	// the rebuilt base columns into the same cut set the dead process had
	// (the kernel is deterministic — enforced by crackvet's detrand
	// checker — and recovery is single-goroutine, so replay order is tape
	// order). This is what makes the restart warm rather than correct-but-
	// cold.
	for _, rec := range cp.Tape {
		d.replayCrack(rec)
	}

	// Apply the segment tail on top of the checkpoint. The segment is read
	// and scanned once: the log opens at the valid prefix the replay found.
	segPath := wal.SegmentPath(dir, cp.Seq)
	raw, err := os.ReadFile(segPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	valid, err := wal.Scan(raw, func(_ int64, rec wal.Record) error {
		return d.applyReplay(cp.Seq, rec)
	})
	if err != nil {
		return nil, err
	}
	d.open.ReplayedBytes = valid
	d.open.TruncatedBytes = wal.TornBytes(raw[valid:])

	log, err := wal.OpenLog(segPath, valid, walOpts)
	if err != nil {
		return nil, err
	}
	d.log = log

	d.open.Recovered = true
	d.open.CleanShutdown = hasMarker && mSeq == cp.Seq &&
		mSize == int64(len(raw)) && mSize == valid && d.open.ReplayedRecords == 0
	d.open.RecoveryTime = time.Since(t0)
	return d, nil
}

// newDurEngine puts e, built over rel, behind the guard with the crack
// journal hooked into its write path.
func newDurEngine(e Engine, rel *store.Relation, dir string, opts DurableOptions) *durEngine {
	d := &durEngine{rwEngine: rwEngine{e: e}, rel: rel, dir: dir, width: len(rel.Order), opts: opts}
	d.journal = d.journalCrack
	return d
}

// applyReplay applies one recovered WAL record to the warm store.
func (d *durEngine) applyReplay(cpSeq uint64, rec wal.Record) error {
	switch rec.Type {
	case wal.RecInsert:
		for i := 0; i+rec.Width <= len(rec.Vals); i += rec.Width {
			d.e.Insert(rec.Vals[i : i+rec.Width]...)
		}
		d.open.ReplayedRecords++
	case wal.RecDelete:
		for _, k := range rec.Keys {
			d.e.Delete(k)
		}
		d.open.ReplayedRecords++
	case wal.RecCrack:
		d.replayCrack(rec)
		d.open.ReplayedRecords++
	case wal.RecCheckpoint:
		if rec.Seq != cpSeq {
			return fmt.Errorf("engine: wal segment opened by checkpoint %d but checkpoint on disk is %d", rec.Seq, cpSeq)
		}
	default:
		return fmt.Errorf("engine: replaying unknown wal record type %d", rec.Type)
	}
	return nil
}

// replayCrack re-runs one recovered crack-tape record and keeps it on the
// tape. A record that does not fit the recovered relation — no predicate,
// or a predicate or projection over an attribute the relation lacks — is
// skipped and counted instead: the engine would panic on it, the tape is
// an optimization, and dropping the record here also keeps it out of the
// next checkpoint, so an image poisoned once reopens clean from then on.
func (d *durEngine) replayCrack(rec wal.Record) {
	fits := len(rec.Preds) > 0
	for _, p := range rec.Preds {
		fits = fits && d.rel.Column(p.Attr) != nil
	}
	for _, a := range rec.Projs {
		fits = fits && d.rel.Column(a) != nil
	}
	if !fits {
		d.open.TapeSkipped++
		return
	}
	d.e.Query(tapeQuery(rec))
	d.tape = append(d.tape, rec)
}

// tapeQuery converts a crack-tape record back into the query that cut it.
func tapeQuery(rec wal.Record) Query {
	q := Query{Projs: rec.Projs, Disjunctive: rec.Disjunctive}
	q.Preds = make([]AttrPred, len(rec.Preds))
	for i, p := range rec.Preds {
		q.Preds[i] = AttrPred{Attr: p.Attr, Pred: p.Pred}
	}
	return q
}

// crackRecord converts a reorganizing query into its tape record.
func crackRecord(q Query) wal.Record {
	rec := wal.Record{Type: wal.RecCrack, Projs: q.Projs, Disjunctive: q.Disjunctive}
	rec.Preds = make([]wal.PredRec, len(q.Preds))
	for i, ap := range q.Preds {
		rec.Preds[i] = wal.PredRec{Attr: ap.Attr, Pred: ap.Pred}
	}
	return rec
}

// checkpoint materializes the current state (caller holds the write lock,
// or is inside OpenDurable before the engine is shared). The base-column
// slices are referenced, not copied: the relation is append-only and the
// encode completes before the lock is released. The tombstones are the
// relation's: each deleted key once, however often it was deleted.
func (d *durEngine) checkpoint(seq uint64) *wal.Checkpoint {
	cp := &wal.Checkpoint{Seq: seq, Name: d.rel.Name, Attrs: d.rel.Order, Dead: d.rel.Deleted(), Tape: d.tape}
	cp.Cols = make([][]store.Value, len(d.rel.Order))
	for i, attr := range d.rel.Order {
		cp.Cols[i] = d.rel.MustColumn(attr).Vals
	}
	return cp
}

// maybeCheckpointLocked rotates the WAL when the live segment has outgrown
// the configured threshold. Caller holds the write lock.
func (d *durEngine) maybeCheckpointLocked() {
	limit := d.opts.checkpointBytes()
	if limit <= 0 || d.log.Size() < limit {
		return
	}
	d.checkpointLocked()
}

// checkpointLocked writes a fresh checkpoint and swaps to a new WAL
// segment. The order is chosen so a crash anywhere leaves a recoverable
// pair:
//
//  1. fsync the old segment — every ack in flight is durable before its
//     segment is retired, so no WaitDurable waiter can fail after its data
//     became recoverable;
//  2. create the new (empty) segment;
//  3. atomically publish the new checkpoint (tmp+fsync+rename+dir-fsync);
//  4. stamp the new segment with its checkpoint's marker record;
//  5. swap logs, then close and delete the old segment.
//
// Failing before step 3 keeps the old pair authoritative; failing after it
// leaves the new pair authoritative with at worst a stale segment file
// that recovery ignores.
func (d *durEngine) checkpointLocked() {
	if err := d.log.Sync(); err != nil {
		d.writeErrs.Add(1)
		return
	}
	seq := d.cpSeq + 1
	newLog, err := wal.OpenLog(wal.SegmentPath(d.dir, seq), 0, wal.Options{Sync: d.opts.Sync, Wrap: d.opts.Wrap})
	if err != nil {
		d.writeErrs.Add(1)
		return
	}
	if err := wal.WriteCheckpoint(d.dir, d.checkpoint(seq)); err != nil {
		newLog.Close()
		os.Remove(wal.SegmentPath(d.dir, seq))
		d.writeErrs.Add(1)
		return
	}
	// The checkpoint on disk now names the new segment; from here the swap
	// must happen even if the marker append fails (a poisoned new log
	// refuses acks, which is safe — staying on the old log would ack
	// writes recovery will never see).
	if err := newLog.Append(wal.Record{Type: wal.RecCheckpoint, Seq: seq}); err != nil {
		d.writeErrs.Add(1)
	}
	old := d.log
	d.log = newLog
	d.cpSeq = seq
	d.checkpoints.Add(1)
	old.Close()
	wal.RemoveSegmentsExcept(d.dir, seq)
}

// Close makes the store durable and marks the shutdown clean: final fsync,
// final checkpoint (so the next open replays nothing), close — which trims
// the segment's preallocated tail, so the file is as long as its records —
// then the clean marker recording that length.
func (d *durEngine) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.log.Sync(); err != nil {
		d.log.Close()
		return err
	}
	d.checkpointLocked()
	if err := d.log.Err(); err != nil {
		d.log.Close()
		return err
	}
	size := d.log.Size()
	if err := d.log.Close(); err != nil {
		return err
	}
	return wal.WriteCleanMarker(d.dir, d.cpSeq, size)
}

// Report is the guard's report plus the Durable section, each read in its
// own read-lock section (never nested: a writer queued between two nested
// RLocks would deadlock them).
func (d *durEngine) Report() Report {
	r := d.rwEngine.Report()
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := d.open
	s.TapeLen = len(d.tape)
	s.Checkpoints = d.checkpoints.Load()
	s.WriteErrs = d.writeErrs.Load()
	s.WalBytes = d.log.Size()
	s.Wal = d.log.Stats()
	r.Durable = &s
	return r
}

// CloseDurable checkpoints and closes a durable engine, reporting false
// when e is not one.
func CloseDurable(e Engine) (bool, error) {
	if d, ok := e.(*durEngine); ok {
		return true, d.Close()
	}
	return false, nil
}

// ---------------------------------------------------------------------------
// Engine interface.

// logThenApply is the write path of Insert and Delete: append rec to the
// WAL, apply it in memory inside the same write-lock section (so log order
// is apply order), then wait outside the lock until the record is durable
// per the sync mode — concurrent writers stack up appends and share fsyncs
// (group commit); if a checkpoint retired the record's segment meanwhile,
// step 1 of the rotation already fsynced it and the wait returns at once.
// A refused append applies nothing: the in-memory state never runs ahead of
// the log's ordering. It reports whether the write may be acked; a refused
// or failed write counts in DurStats.WriteErrs, and since the log poisons
// on the first storage error every later write fails too (the durable
// prefix is unknowable, so acking would lie — restart and recover instead).
func (d *durEngine) logThenApply(rec wal.Record, apply func()) bool {
	log, end, err := d.appendApply(rec, apply)
	if err == nil {
		err = log.WaitDurable(end)
	}
	if err != nil {
		d.writeErrs.Add(1)
	}
	return err == nil
}

// appendApply is logThenApply's write-lock section. It returns the log
// the record went to, which a checkpoint may have retired since.
func (d *durEngine) appendApply(rec wal.Record, apply func()) (*wal.Log, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	log := d.log
	end, err := log.AppendBuffered(rec)
	if err == nil {
		apply()
		d.maybeCheckpointLocked()
	}
	return log, end, err
}

// Insert logs the tuple, applies it, and acks with its key only once the
// record is durable; a refused or failed write returns key -1.
func (d *durEngine) Insert(vals ...Value) int {
	if len(vals) != d.width {
		d.writeErrs.Add(1)
		return -1
	}
	key := -1
	if !d.logThenApply(wal.Record{Type: wal.RecInsert, Width: d.width, Vals: vals}, func() {
		key = d.e.Insert(vals...)
	}) {
		return -1
	}
	return key
}

// Delete logs and applies a tombstone. A key no tuple has is logged and
// ignored, as every engine ignores it. A failed durability wait leaves the
// tombstone applied — the poisoned log stops all further acks anyway.
func (d *durEngine) Delete(key int) {
	d.logThenApply(wal.Record{Type: wal.RecDelete, Keys: []int{key}}, func() { d.e.Delete(key) })
}

// journalCrack appends a query that reorganized — a join side's selection
// included — to the crack tape, still inside the guard's write-lock
// section, so the cuts it made survive a restart. Recording after execution
// means a query the engine rejects (it panics on an unknown column) never
// reaches the tape, where it would poison every later recovery. Tape
// appends are buffered, never durability-waited: losing an unsynced tape
// tail costs restart warmth, not correctness, and read latency must not pay
// for fsyncs.
func (d *durEngine) journalCrack(q Query) {
	rec := crackRecord(q)
	if _, err := d.log.AppendBuffered(rec); err != nil {
		d.writeErrs.Add(1)
	}
	d.tape = append(d.tape, rec)
	d.maybeCheckpointLocked()
}
