package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
	"crackstore/internal/wal"
	"crackstore/internal/workload"
)

// flushPolicy is the WAL durability mode durable-churn runs under; it is
// stamped into every summary's env block.
const flushPolicy = wal.SyncGroup

// syncFile sits between the WAL and its segment file. It counts what the
// log does to the file, and it remembers how far a successful Sync has
// reached, so that a crash can be simulated honestly: killing a process
// leaves the page cache intact, so the benchmark itself throws away what
// was written but never synced.
type syncFile struct {
	f  wal.File
	mu sync.Mutex // the log syncs outside its own lock

	written int64 // bytes written through this wrapper
	synced  int64 // prefix of them a successful Sync covered
	writes  int64
	fsyncNs []int64
}

func (s *syncFile) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.mu.Lock()
	s.written += int64(n)
	s.writes++
	s.mu.Unlock()
	return n, err
}

func (s *syncFile) Sync() error {
	s.mu.Lock()
	upTo := s.written
	s.mu.Unlock()
	t0 := time.Now()
	err := s.f.Sync()
	d := int64(time.Since(t0))
	s.mu.Lock()
	s.fsyncNs = append(s.fsyncNs, d)
	if err == nil && upTo > s.synced {
		s.synced = upTo
	}
	s.mu.Unlock()
	return err
}

func (s *syncFile) Close() error { return s.f.Close() }

// durableStream is durable-churn's episode: rounds of cold narrow queries
// followed by acknowledged delete+insert pairs.
func durableStream(b *bench, g *workload.Gen) []op {
	rows := int64(b.cfg.rows)
	rounds := b.cfg.perEpisode(durableRounds)
	live := newLiveKeys(b.base, 1, rows)
	ops := make([]op, 0, rounds*3*durableRoundOps)
	for r := 0; r < rounds; r++ {
		for i := 0; i < durableRoundOps; i++ {
			ops = append(ops, op{kind: opQuery, q: narrowT1(g, 1, rows)})
		}
		for i := 0; i < durableRoundOps; i++ {
			ops = live.update(ops, g, 1, rows)
		}
	}
	return ops
}

// walTotals sums the log-side counters over the episodes.
type walTotals struct {
	stats                       wal.Stats
	fileWrites, fileBytes       int64
	fsyncNs                     []int64
	tape, replayed, checkpoints int64
	replayedBytes               int64
}

func (t *walTotals) addFile(f *syncFile) {
	t.fileWrites += f.writes
	t.fileBytes += f.written
	t.fsyncNs = append(t.fsyncNs, f.fsyncNs...)
}

// durableRun is durable-churn's state across its episodes: the log-side
// counters and the recovery times.
type durableRun struct {
	b         *bench
	tot       walTotals
	recoverMs []float64
}

// open makes a durable sideways engine over rel in its own fresh
// directory. Its after hook is the crash.
func (d *durableRun) open(rel *store.Relation) (stack, error) {
	dir, err := d.b.scratchDir("durable")
	if err != nil {
		return stack{}, err
	}
	var seg *syncFile // wrapper of the live segment; replaced when a log opens
	opts := engine.DurableOptions{Sync: flushPolicy, Wrap: func(f wal.File) wal.File {
		seg = &syncFile{f: f}
		return seg
	}}
	e, err := engine.OpenDurable(engine.Sideways, rel, dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return stack{}, err
	}
	st := stack{e: e}
	// Crash: the engine is dropped without CloseDurable, the live segment
	// loses everything no successful Sync had covered, and the store is
	// opened again from what is left. Every write was acknowledged before the
	// crash, so the recovered store must hold them all.
	st.after = func(r *result) (engine.Engine, error) {
		ds, _ := engine.DurStatsOf(e)
		r.fault(int(ds.WriteErrs), "write refused or failed by the log")
		t := &d.tot
		t.stats.Appends += ds.Wal.Appends
		t.stats.Bytes += ds.Wal.Bytes
		t.stats.Fsyncs += ds.Wal.Fsyncs
		t.stats.GroupCommits += ds.Wal.GroupCommits
		t.tape += int64(ds.TapeLen)
		t.checkpoints += ds.Checkpoints
		t.addFile(seg)

		seg.Close()
		if err := os.Truncate(wal.SegmentPath(dir, uint64(ds.Checkpoints)), seg.synced); err != nil {
			return nil, fmt.Errorf("crash truncate: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		recovered, err := engine.OpenDurable(engine.Sideways, nil, dir, opts)
		e = recovered // nil if recovery failed: the crashed engine is not closed
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		d.recoverMs = append(d.recoverMs, float64(time.Since(t0))/1e6)
		ds, _ = engine.DurStatsOf(e)
		t.replayed += int64(ds.ReplayedRecords)
		t.replayedBytes += ds.ReplayedBytes
		return e, nil
	}
	st.close = func(r *result) {
		if e != nil {
			if _, err := engine.CloseDurable(e); err != nil {
				r.fault(1, "close: "+err.Error())
			}
		}
		os.RemoveAll(dir)
	}
	return st, nil
}

func runDurableChurn(b *bench, r *result) {
	d := &durableRun{b: b}
	n, ops := b.runEpisodic(r, episodic{
		tag:      wDurableChurn,
		layer:    "engine.durable.Query",
		episodes: durableEpisodes,
		open:     d.open,
		stream:   durableStream,
		writes:   true,
	})
	r.e2e("recover_ms", median(d.recoverMs), len(d.recoverMs))

	tot := &d.tot
	writes := float64(max(n*(len(ops)-countQueries(ops)), 1))
	eps := float64(max(n, 1))
	r.layer("wal.bytes_per_write", float64(tot.stats.Bytes)/writes)
	r.layer("wal.fsyncs_per_write", float64(tot.stats.Fsyncs)/writes)
	r.layer("wal.group_commit_frac", float64(tot.stats.GroupCommits)/float64(max(tot.stats.Appends, 1)))
	r.layer("wal.write_calls_per_write", float64(tot.fileWrites)/writes)
	r.layer("wal.write_bytes_mean", float64(tot.fileBytes)/float64(max(tot.fileWrites, 1)))
	slices.Sort(tot.fsyncNs)
	r.layer("wal.fsync_p50_us", float64(percentile(tot.fsyncNs, 50))/1e3)
	r.layer("wal.fsync_p99_us", float64(percentile(tot.fsyncNs, 99))/1e3)
	r.layer("wal.tape_records", float64(tot.tape)/eps)
	r.layer("wal.replayed_records", float64(tot.replayed)/eps)
	r.layer("wal.replayed_bytes", float64(tot.replayedBytes)/eps)
	r.layer("engine.durable.checkpoints", float64(tot.checkpoints)/eps)
}

func ledgerDurableChurn(b *bench, r *result) { b.microWalCodec(r) }
