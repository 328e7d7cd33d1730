package engine

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/faultnet"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

const durSentinelBase = store.Value(1) << 40

func durSeedRel() *store.Relation {
	return store.Build("R", 60, []string{"A", "B", "C"}, func(attr string, row int) store.Value {
		return store.Value(store.Mix64(uint64(row)*31+uint64(len(attr)))%999) + 1
	})
}

// durBattery is the answer battery used to compare two stores: range
// counts, multi-attribute conjunctions and disjunctions, and a point query
// per sentinel value. Answer-equivalence over it is the recovery contract.
func durBattery(sentinels []store.Value) []Query {
	all := []string{"A", "B", "C"}
	qs := []Query{
		{Preds: []AttrPred{{Attr: "A", Pred: store.Range(-(1 << 60), 1<<60)}}, Projs: all},
		{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 500)}}, Projs: []string{"A", "B"}},
		{Preds: []AttrPred{{Attr: "A", Pred: store.Range(250, 800)}}, Projs: []string{"C"}},
		{Preds: []AttrPred{{Attr: "B", Pred: store.Range(100, 400)}}, Projs: []string{"A"}},
		{Preds: []AttrPred{
			{Attr: "A", Pred: store.Range(0, 300)},
			{Attr: "B", Pred: store.Range(0, 600)},
		}, Projs: []string{"A", "C"}},
		{Preds: []AttrPred{
			{Attr: "A", Pred: store.Range(0, 200)},
			{Attr: "B", Pred: store.Range(500, 900)},
		}, Projs: []string{"A"}, Disjunctive: true},
	}
	for _, s := range sentinels {
		qs = append(qs, Query{Preds: []AttrPred{{Attr: "A", Pred: store.Point(s)}}, Projs: all})
	}
	return qs
}

// resultTuples renders a result as a sorted multiset of tuples, so stores
// with different physical layouts (and thus different result orders)
// compare equal exactly when they agree on content.
func resultTuples(res Result, projs []string) []string {
	tuples := make([]string, res.N)
	for i := 0; i < res.N; i++ {
		row := ""
		for _, attr := range projs {
			row += fmt.Sprintf("%d|", res.Cols[attr][i])
		}
		tuples[i] = row
	}
	sort.Strings(tuples)
	return tuples
}

func assertAnswerEquivalent(t *testing.T, tag string, got, want Engine, qs []Query) {
	t.Helper()
	for qi, q := range qs {
		rg, _ := got.Query(q)
		rw, _ := want.Query(q)
		if rg.N != rw.N {
			t.Fatalf("%s: query %d: N=%d want %d", tag, qi, rg.N, rw.N)
		}
		tg, tw := resultTuples(rg, q.Projs), resultTuples(rw, q.Projs)
		for i := range tg {
			if tg[i] != tw[i] {
				t.Fatalf("%s: query %d: tuple %d: %q vs %q", tag, qi, i, tg[i], tw[i])
			}
		}
	}
}

// durOp is one scripted workload operation.
type durOp struct {
	kind byte // 'i' insert, 'd' delete, 'q' query
	vals []store.Value
	key  int
	q    Query
}

// durWorkload is the deterministic insert/delete/crack mix the crash tests
// run. Sentinel A-values are unique and far outside the seed domain so
// point queries can assert exactly-once survival.
func durWorkload() (ops []durOp, sentinels []store.Value) {
	qa := func(lo, hi store.Value) durOp {
		return durOp{kind: 'q', q: Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, hi)}}, Projs: []string{"A", "B"}}}
	}
	qb := func(lo, hi store.Value) durOp {
		return durOp{kind: 'q', q: Query{Preds: []AttrPred{{Attr: "B", Pred: store.Range(lo, hi)}}, Projs: []string{"C"}}}
	}
	ins := func(i int) durOp {
		s := durSentinelBase + store.Value(i)
		sentinels = append(sentinels, s)
		return durOp{kind: 'i', vals: []store.Value{s, store.Value(100 + i), store.Value(200 + i)}}
	}
	ops = []durOp{
		qa(100, 300),
		ins(0), // key 60
		qa(200, 600),
		ins(1),
		durOp{kind: 'd', key: 5},
		qb(100, 500),
		ins(2),
		durOp{kind: 'd', key: 60}, // kills sentinel 0
		durOp{kind: 'q', q: Query{Preds: []AttrPred{
			{Attr: "A", Pred: store.Range(0, 150)},
			{Attr: "B", Pred: store.Range(600, 999)},
		}, Projs: []string{"A"}, Disjunctive: true}},
		ins(3),
		qa(50, 120),
		ins(4),
		durOp{kind: 'd', key: 17},
		qb(700, 950),
		ins(5),
		qa(400, 950),
		ins(6),
		ins(7),
	}
	return ops, sentinels
}

func applyOp(e Engine, op durOp) int {
	switch op.kind {
	case 'i':
		return e.Insert(op.vals...)
	case 'd':
		e.Delete(op.key)
	case 'q':
		e.Query(op.q)
	}
	return 0
}

func copyDurDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableFreshOpenBasics(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(SelCrack, durSeedRel(), dir, DurableOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st, ok := DurStatsOf(e)
	if !ok {
		t.Fatal("durable engine has no DurStats")
	}
	if st.Recovered || st.CleanShutdown {
		t.Fatalf("fresh open claims recovery: %+v", st)
	}
	if key := e.Insert(durSentinelBase, 1, 2); key != 60 {
		t.Fatalf("insert key=%d want 60", key)
	}
	if key := e.Insert(1, 2); key != -1 {
		t.Fatal("arity-mismatched insert acked")
	}
	res, _ := e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Point(durSentinelBase)}}, Projs: []string{"B"}})
	if res.N != 1 {
		t.Fatalf("sentinel query N=%d", res.N)
	}
	if ok, err := CloseDurable(e); !ok || err != nil {
		t.Fatalf("close: ok=%v err=%v", ok, err)
	}
}

// TestDurableCrashMatrix is the crash-point matrix property test: run a
// scripted insert/delete/crack workload with per-record fsync, then for
// every byte offset of the resulting WAL's records simulate a process kill
// at that point (checkpoint + truncated segment in a fresh directory),
// recover, and require the recovered store to be answer-equivalent to a
// sequential replay of exactly the records whose frames are complete in
// the image — zero acked-write loss at the full image, no phantoms
// anywhere. Two more images keep the preallocated zero tail a crash can
// leave behind: every record followed by it, and a torn last record
// followed by zeros; the zeros are end of log, not torn bytes.
func TestDurableCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Sync: wal.SyncGroup, CheckpointBytes: -1}
	e, err := OpenDurable(SelCrack, durSeedRel(), dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ops, sentinels := durWorkload()
	for i, op := range ops {
		if key := applyOp(e, op); op.kind == 'i' && key < 0 {
			t.Fatalf("op %d: insert not acked", i)
		}
	}
	// No Close: the crash happens with the WAL as the only record of the
	// post-checkpoint writes. SyncGroup means every acked write is inside
	// the synced image read back here: the records, then the zeros of the
	// preallocated step.
	img, err := os.ReadFile(wal.SegmentPath(dir, 0))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	var starts []int64
	written, err := wal.Scan(img, func(off int64, _ wal.Record) error { starts = append(starts, off); return nil })
	if err != nil || wal.TornBytes(img[written:]) != 0 {
		t.Fatalf("live segment: %d record bytes, then %d non-zero bytes (err %v)", written, wal.TornBytes(img[written:]), err)
	}
	cpBytes, err := os.ReadFile(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	root := t.TempDir()
	qs := durBattery(sentinels)

	// crash recovers image as the segment next to the checkpoint and checks
	// it against a never-crashed twin; it returns the image's valid prefix
	// and the torn bytes recovery reported.
	crash := func(tag string, image []byte) (valid, truncated int64) {
		crashDir := filepath.Join(root, tag)
		if err := os.MkdirAll(crashDir, 0o755); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(crashDir)
		if err := os.WriteFile(filepath.Join(crashDir, "checkpoint"), cpBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal.SegmentPath(crashDir, 0), image, 0o644); err != nil {
			t.Fatal(err)
		}

		rec, err := OpenDurable(SelCrack, nil, crashDir, opts)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", tag, err)
		}
		defer CloseDurable(rec)
		st, _ := DurStatsOf(rec)
		if !st.Recovered {
			t.Fatalf("%s: not marked recovered", tag)
		}
		if st.CleanShutdown {
			t.Fatalf("%s: crash image marked clean", tag)
		}

		// The never-crashed twin replays exactly the complete records.
		twin := New(SelCrack, durSeedRel())
		replayable := 0
		valid, err = wal.Scan(image, func(_ int64, r wal.Record) error {
			switch r.Type {
			case wal.RecInsert:
				for i := 0; i+r.Width <= len(r.Vals); i += r.Width {
					twin.Insert(r.Vals[i : i+r.Width]...)
				}
				replayable++
			case wal.RecDelete:
				for _, key := range r.Keys {
					twin.Delete(key)
				}
				replayable++
			case wal.RecCrack:
				twin.Query(tapeQuery(r))
				replayable++
			case wal.RecCheckpoint:
			default:
				t.Fatalf("%s: unexpected record type %v", tag, r.Type)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: scan: %v", tag, err)
		}
		if st.ReplayedRecords != replayable {
			t.Fatalf("%s: replayed %d records, image has %d", tag, st.ReplayedRecords, replayable)
		}
		assertAnswerEquivalent(t, tag, rec, twin, qs)
		return valid, st.TruncatedBytes
	}

	step := 1
	if testing.Short() {
		step = 13
	}
	for k := 0; k <= int(written); k += step {
		valid, truncated := crash(fmt.Sprintf("k%06d", k), img[:k])
		// A tear is counted through its last non-zero byte: recovery cannot
		// tell the zeros a torn write ended with from unwritten space.
		torn := bytes.TrimRight(img[valid:k], "\x00")
		if truncated != int64(len(torn)) {
			t.Fatalf("k=%d: truncated %d, want %d", k, truncated, len(torn))
		}
	}

	if valid, truncated := crash("zero-tail", img); valid != written || truncated != 0 {
		t.Fatalf("records + zero step: valid %d, truncated %d; want %d, 0", valid, truncated, written)
	}

	// Tear the last record before its last non-zero byte, at a non-zero
	// byte, and zero the rest of it.
	last := starts[len(starts)-1]
	cut := last + wal.TornBytes(img[last:written]) - 1
	for cut > last+1 && img[cut-1] == 0 {
		cut--
	}
	tornImg := slices.Clone(img)
	clear(tornImg[cut:written])
	if valid, truncated := crash("torn-zero-tail", tornImg); valid != last || truncated != cut-last {
		t.Fatalf("torn last record + zeros: valid %d, truncated %d; want %d, %d", valid, truncated, last, cut-last)
	}
}

// TestDurableCloseTrimsSegment: a live segment runs past its records into
// the preallocated step, and CloseDurable trims it, so the segment the
// clean marker names is exactly as long as the marker says.
func TestDurableCloseTrimsSegment(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(Sideways, durSeedRel(), dir, DurableOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ops, _ := durWorkload()
	for _, op := range ops {
		applyOp(e, op)
	}
	st, _ := DurStatsOf(e)
	fi, err := os.Stat(wal.SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live segment: %d bytes on disk, %d written", fi.Size(), st.WalBytes)
	if fi.Size() < st.WalBytes {
		t.Fatalf("live segment %d bytes, shorter than its %d written", fi.Size(), st.WalBytes)
	}
	if ok, err := CloseDurable(e); !ok || err != nil {
		t.Fatalf("close: ok=%v err=%v", ok, err)
	}
	seq, walSize, ok := wal.TakeCleanMarker(dir)
	if !ok {
		t.Fatal("no clean marker after CloseDurable")
	}
	fi, err = os.Stat(wal.SegmentPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != walSize {
		t.Fatalf("segment %d is %d bytes, clean marker says %d", seq, fi.Size(), walSize)
	}
}

func TestDurableWarmRestart(t *testing.T) {
	for _, kind := range []Kind{SelCrack, Sideways, PartialSideways} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			e, err := OpenDurable(kind, durSeedRel(), dir, DurableOptions{Sync: wal.SyncGroup})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			ops, sentinels := durWorkload()
			var cracked []Query
			for _, op := range ops {
				applyOp(e, op)
				if op.kind == 'q' {
					cracked = append(cracked, op.q)
				}
			}
			if ok, err := CloseDurable(e); !ok || err != nil {
				t.Fatalf("close: ok=%v err=%v", ok, err)
			}

			re, err := OpenDurable(kind, nil, dir, DurableOptions{Sync: wal.SyncGroup})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			st, _ := DurStatsOf(re)
			if !st.Recovered || !st.CleanShutdown {
				t.Fatalf("clean restart not detected: %+v", st)
			}
			if st.ReplayedRecords != 0 {
				t.Fatalf("clean restart replayed %d records", st.ReplayedRecords)
			}
			if st.TapeLen == 0 {
				t.Fatal("tape empty after cracking workload")
			}
			// Warmth: the queries that cracked the dead process's layout
			// must find the recovered layout already cracked — no
			// reorganization, which is exactly what QueryRO's ok reports. Only
			// single-predicate queries guarantee this: multi-predicate
			// plans pick their head from live selectivity estimates, so
			// their eligibility varies with physical state even on a
			// never-crashed store.
			warm := 0
			for i, q := range cracked {
				if len(q.Preds) != 1 {
					continue
				}
				warm++
				if _, _, ok := re.QueryRO(q); !ok {
					t.Fatalf("recovered store cold for replayed query %d: %+v", i, q)
				}
			}
			if warm == 0 {
				t.Fatal("workload had no single-predicate queries to check warmth with")
			}
			// And the recovered store answers like a never-crashed twin.
			twin := New(kind, durSeedRel())
			for _, op := range ops {
				applyOp(twin, op)
			}
			assertAnswerEquivalent(t, "warm", re, twin, durBattery(sentinels))
			CloseDurable(re)
		})
	}
}

// TestDurableJoinMaxCracksOnTape: a join side on a durable stack is a query
// like any other, so its cracks go on the crack tape. A crash image (no
// Close) reopens with both sides' cracks replayed, and the join answers
// like one over Scan engines before the crash and after it.
func TestDurableJoinMaxCracksOnTape(t *testing.T) {
	join := func(e Engine) map[string]Value {
		got, _ := JoinMax(
			JoinSide{E: e, Preds: []AttrPred{{Attr: "A", Pred: store.Range(100, 700)}}, JoinAttr: "C", Projs: []string{"B", "C"}},
			JoinSide{E: e, Preds: []AttrPred{{Attr: "B", Pred: store.Range(200, 900)}}, JoinAttr: "C", Projs: []string{"A"}},
		)
		return got
	}
	want := join(NewScan(durSeedRel()))
	if len(want) != 3 {
		t.Fatalf("degenerate join: %v", want)
	}
	for _, kind := range []Kind{SelCrack, Sideways} {
		t.Run(kind.String(), func(t *testing.T) {
			src := t.TempDir()
			e, err := OpenDurable(kind, durSeedRel(), src, DurableOptions{Sync: wal.SyncGroup})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer CloseDurable(e)
			if got := join(e); !maps.Equal(got, want) {
				t.Fatalf("join = %v, scan %v", got, want)
			}
			dir := filepath.Join(t.TempDir(), "crash")
			copyDurDir(t, src, dir)
			re, err := OpenDurable(kind, nil, dir, DurableOptions{Sync: wal.SyncGroup})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer CloseDurable(re)
			if st, _ := DurStatsOf(re); st.TapeLen != 2 {
				t.Fatalf("tape holds %d records, want the two join sides' cracks", st.TapeLen)
			}
			if got := join(re); !maps.Equal(got, want) {
				t.Fatalf("recovered join = %v, scan %v", got, want)
			}
		})
	}
}

func TestDurableRecoverMissingSegment(t *testing.T) {
	// Crash window in the fresh-open sequence: checkpoint written, segment
	// never created. Recovery must treat it as an empty segment.
	dir := t.TempDir()
	e, err := OpenDurable(SelCrack, durSeedRel(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := CloseDurable(e); !ok || err != nil {
		t.Fatal(err)
	}
	st, _ := os.ReadDir(dir)
	for _, f := range st {
		if f.Name() != "checkpoint" {
			os.Remove(filepath.Join(dir, f.Name()))
		}
	}
	re, err := OpenDurable(SelCrack, nil, dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery without segment: %v", err)
	}
	ds, _ := DurStatsOf(re)
	if !ds.Recovered || ds.CleanShutdown || ds.ReplayedRecords != 0 {
		t.Fatalf("unexpected stats: %+v", ds)
	}
	res, _ := re.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(-(1 << 60), 1<<60)}}, Projs: []string{"A"}})
	if res.N != 60 {
		t.Fatalf("N=%d want 60", res.N)
	}
	CloseDurable(re)
}

// TestDurableCheckpointRotation forces frequent WAL rotation and verifies
// (a) every mid-run directory snapshot — a consistent crash image taken
// between operations — recovers to exactly the writes acked before it, and
// (b) the final state matches a never-crashed twin.
func TestDurableCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Sync: wal.SyncGroup, CheckpointBytes: 512}
	e, err := OpenDurable(SelCrack, durSeedRel(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	twin := New(SelCrack, durSeedRel())
	type snap struct {
		dir   string
		acked int // sentinels acked before the copy
	}
	var snaps []snap
	var sentinels []store.Value
	for i := 0; i < 120; i++ {
		s := durSentinelBase + store.Value(i)
		sentinels = append(sentinels, s)
		vals := []store.Value{s, store.Value(i % 7), store.Value(i % 11)}
		if key := e.Insert(vals...); key < 0 {
			t.Fatalf("insert %d refused", i)
		}
		twin.Insert(vals...)
		if i%17 == 3 {
			q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(store.Value(i), store.Value(i*5))}}, Projs: []string{"B"}}
			e.Query(q)
			twin.Query(q)
		}
		if i%25 == 24 {
			sd := filepath.Join(root, fmt.Sprintf("snap%03d", i))
			copyDurDir(t, dir, sd)
			snaps = append(snaps, snap{dir: sd, acked: i + 1})
		}
	}
	st, _ := DurStatsOf(e)
	if st.Checkpoints == 0 {
		t.Fatalf("no rotation at CheckpointBytes=512: %+v", st)
	}
	if st.WalBytes >= 10*512 {
		t.Fatalf("segment grew unbounded: %d bytes", st.WalBytes)
	}
	assertAnswerEquivalent(t, "final", e, twin, durBattery(sentinels))
	if ok, err := CloseDurable(e); !ok || err != nil {
		t.Fatal(err)
	}

	for _, sn := range snaps {
		rec, err := OpenDurable(SelCrack, nil, sn.dir, opts)
		if err != nil {
			t.Fatalf("%s: recovery: %v", sn.dir, err)
		}
		for i, s := range sentinels {
			res, _ := rec.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Point(s)}}, Projs: []string{"A"}})
			want := 0
			if i < sn.acked {
				want = 1
			}
			if res.N != want {
				t.Fatalf("%s: sentinel %d: N=%d want %d", sn.dir, i, res.N, want)
			}
		}
		CloseDurable(rec)
	}
}

// TestDurableConcurrentAckedWritesSurviveCrash hammers a durable engine
// from concurrent writers and readers (group-commit path), then recovers
// from a copy of the directory as if the process had been killed, and
// requires every acked insert to be present exactly once. Runs under
// -race in CI (and in the multicore stress job via the Concurrent name).
func TestDurableConcurrentAckedWritesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable(SelCrack, durSeedRel(), dir, DurableOptions{Sync: wal.SyncGroup, CheckpointBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 30
	var wg sync.WaitGroup
	acked := make([][]store.Value, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := durSentinelBase + store.Value(w*perWriter+i)
				if key := e.Insert(s, store.Value(w), store.Value(i)); key >= 0 {
					acked[w] = append(acked[w], s)
				}
				if i%2 == 0 {
					e.Delete(5000 + w) // no-op keys: exercise delete logging
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(store.Value(r*10), store.Value(500+r*100))}}, Projs: []string{"B"}})
			}
		}(r)
	}
	wg.Wait()
	st, _ := DurStatsOf(e)
	if st.WriteErrs != 0 {
		t.Fatalf("healthy storage produced %d write errors", st.WriteErrs)
	}

	// Simulated kill: copy the directory while the engine still holds it
	// (every acked write is already fsynced under SyncGroup), recover the
	// copy.
	crashDir := filepath.Join(t.TempDir(), "crash")
	copyDurDir(t, dir, crashDir)
	rec, err := OpenDurable(SelCrack, nil, crashDir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rst, _ := DurStatsOf(rec)
	if !rst.Recovered || rst.CleanShutdown {
		t.Fatalf("crash image stats: %+v", rst)
	}
	total := 0
	for w := range acked {
		total += len(acked[w])
		for _, s := range acked[w] {
			res, _ := rec.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Point(s)}}, Projs: []string{"A"}})
			if res.N != 1 {
				t.Fatalf("acked sentinel %d present %d times after recovery", s, res.N)
			}
		}
	}
	if total != writers*perWriter {
		t.Fatalf("acked %d of %d healthy inserts", total, writers*perWriter)
	}
	CloseDurable(rec)
	CloseDurable(e)
}

// TestDurableRecoversUnderPolicy: DurableOptions.Policy is in place before
// the crack tape is replayed, so a crash image of a store that cracked under
// a policy comes back with the policy's auxiliary pivots, not only the
// query bounds — and still answers like a scan.
func TestDurableRecoversUnderPolicy(t *testing.T) {
	opts := DurableOptions{Sync: wal.SyncGroup, Policy: crack.Policy{Kind: crack.Capped, Cap: 512}}
	base := buildRel(rand.New(rand.NewSource(31)), 20000, []string{"A", "B"}, 20000)
	dir := t.TempDir()
	e, err := OpenDurable(SelCrack, cloneRel(base), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for i := int64(0); i < 6; i++ {
		qs = append(qs, Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(i*3000, i*3000+700)}}, Projs: []string{"B"}})
		e.Query(qs[i])
	}
	e.Insert(19999, 7)

	// Simulated kill: no Close, so no final checkpoint and no clean marker —
	// recovery must replay the cracks from the WAL tail.
	crashDir := filepath.Join(t.TempDir(), "crash")
	copyDurDir(t, dir, crashDir)
	CloseDurable(e)
	rec, err := OpenDurable(SelCrack, nil, crashDir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer CloseDurable(rec)
	if st, _ := DurStatsOf(rec); st.CleanShutdown || st.ReplayedRecords != len(qs)+1 {
		t.Fatalf("crash image recovered as %+v, want %d replayed records", st, len(qs)+1)
	}
	if ReportOf(rec).Kernel.Aux == 0 {
		t.Fatal("the recovered cracker column has no auxiliary pivots: the tape was replayed without the policy")
	}
	oracle := New(Scan, cloneRel(base))
	oracle.Insert(19999, 7)
	assertAnswerEquivalent(t, "recovered under policy", rec, oracle,
		append(qs, Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(1000, 15000)}}, Projs: []string{"A", "B"}}))
}

// TestDurableFaultInjection drives the durable engine over a fault-
// injecting file (torn writes, short writes, fsync errors) and pins the
// ack contract: writes errored by injected faults return -1 and poison the
// store, recovery from the damaged image succeeds by truncating the torn
// tail, every acked write survives exactly once, and nothing that was
// never submitted appears.
func TestDurableFaultInjection(t *testing.T) {
	var e Engine
	var dir string
	opts := func(seed int64) DurableOptions {
		return DurableOptions{
			Sync:            wal.SyncGroup,
			CheckpointBytes: -1,
			Wrap: func(f wal.File) wal.File {
				return faultnet.WrapFile(f, faultnet.MixFS(0.04, seed))
			},
		}
	}
	// The injector can kill the open itself (the segment-marker append);
	// scan seeds until an open survives, keeping the run deterministic.
	seed := int64(0)
	for ; seed < 50; seed++ {
		dir = t.TempDir()
		var err error
		e, err = OpenDurable(SelCrack, durSeedRel(), dir, opts(seed))
		if err == nil {
			break
		}
	}
	if e == nil {
		t.Fatal("no seed produced a successful open")
	}

	var acked []store.Value
	refused := 0
	for i := 0; i < 300; i++ {
		s := durSentinelBase + store.Value(i)
		if key := e.Insert(s, store.Value(i%9), store.Value(i%13)); key >= 0 {
			acked = append(acked, s)
		} else {
			refused++
		}
		if i%19 == 4 {
			e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(store.Value(i), store.Value(i+400))}}, Projs: []string{"C"}})
		}
	}
	st, _ := DurStatsOf(e)
	if refused == 0 || st.WriteErrs == 0 {
		t.Fatalf("fault mix injected nothing over 300 writes (seed %d)", seed)
	}
	if len(acked) == 0 {
		t.Fatalf("every write failed (seed %d): first fault should not precede all acks", seed)
	}
	t.Logf("seed=%d acked=%d refused=%d", seed, len(acked), refused)

	// Recover the damaged image (no clean shutdown, torn tail likely).
	crashDir := filepath.Join(t.TempDir(), "crash")
	copyDurDir(t, dir, crashDir)
	rec, err := OpenDurable(SelCrack, nil, crashDir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery over damaged image: %v", err)
	}
	rst, _ := DurStatsOf(rec)
	if !rst.Recovered || rst.CleanShutdown {
		t.Fatalf("damaged image stats: %+v", rst)
	}
	for _, s := range acked {
		res, _ := rec.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Point(s)}}, Projs: []string{"A"}})
		if res.N != 1 {
			t.Fatalf("acked sentinel %d present %d times (seed %d)", s, res.N, seed)
		}
	}
	// No phantoms: every surviving sentinel was actually submitted.
	res, _ := rec.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(durSentinelBase, durSentinelBase+300)}}, Projs: []string{"A"}})
	if res.N < len(acked) || res.N > 300 {
		t.Fatalf("recovered %d sentinels, acked %d, submitted 300", res.N, len(acked))
	}
	CloseDurable(rec)
}

// mustPanic runs f and fails the test unless it panics — the engine's
// answer to a query naming a column the relation does not have (serve
// converts that panic into an in-band error).
func mustPanic(t *testing.T, tag string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected the engine to reject the query", tag)
		}
	}()
	f()
}

// TestDurableMalformedQueryLeavesNoTape is the regression test for the
// poison-tape bug: a query the engine rejects used to be tape-recorded
// before it ran, the record survived into the next checkpoint, and every
// later OpenDurable panicked replaying it. The tape entry is now written
// only after the query has returned.
func TestDurableMalformedQueryLeavesNoTape(t *testing.T) {
	for _, kind := range []Kind{SelCrack, Sideways} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			e, err := OpenDurable(kind, durSeedRel(), dir, DurableOptions{Sync: wal.SyncNone})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			mustPanic(t, "unknown predicate column", func() {
				e.Query(Query{Preds: []AttrPred{{Attr: "NOPE", Pred: store.Range(0, 10)}}, Projs: []string{"A"}})
			})
			mustPanic(t, "unknown projection column", func() {
				e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 500)}}, Projs: []string{"NOPE"}})
			})
			if st, _ := DurStatsOf(e); st.TapeLen != 0 {
				t.Fatalf("rejected queries left %d tape records", st.TapeLen)
			}
			// The guard is not left locked by the panic: a good query runs.
			e.Query(Query{Preds: []AttrPred{{Attr: "B", Pred: store.Range(100, 400)}}, Projs: []string{"A"}})
			if ok, err := CloseDurable(e); !ok || err != nil {
				t.Fatalf("close: ok=%v err=%v", ok, err)
			}
			re, err := OpenDurable(kind, nil, dir, DurableOptions{Sync: wal.SyncNone})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer CloseDurable(re)
			if st, _ := DurStatsOf(re); st.TapeLen != 1 || st.TapeSkipped != 0 {
				t.Fatalf("reopened tape: len=%d skipped=%d, want the one good query", st.TapeLen, st.TapeSkipped)
			}
			assertAnswerEquivalent(t, "reopened", re, NewScan(durSeedRel()), durBattery(nil))
		})
	}
}

// TestDurableRecoverySkipsUnfitTapeRecords: images poisoned by older
// binaries must reopen. A crack record that names an unknown attribute (or
// no predicate at all) — hand-appended to the live segment, or sitting in
// the checkpoint's tape — is skipped and counted, not replayed into a
// panic; the good records around it still replay, and the store answers
// like a Scan twin.
func TestDurableRecoverySkipsUnfitTapeRecords(t *testing.T) {
	bad := []wal.Record{
		{Type: wal.RecCrack, Preds: []wal.PredRec{{Attr: "NOPE", Pred: store.Range(0, 10)}}, Projs: []string{"A"}},
		{Type: wal.RecCrack, Preds: []wal.PredRec{{Attr: "A", Pred: store.Range(0, 10)}}, Projs: []string{"NOPE"}},
		{Type: wal.RecCrack, Projs: []string{"A"}},
	}
	good := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(200, 600)}}, Projs: []string{"B"}}
	opts := DurableOptions{Sync: wal.SyncGroup, CheckpointBytes: -1}

	check := func(t *testing.T, dir string, wantReplayed int) {
		t.Helper()
		re, err := OpenDurable(Sideways, nil, dir, opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		st, _ := DurStatsOf(re)
		if st.TapeSkipped != len(bad) || st.TapeLen != 1 {
			t.Fatalf("skipped=%d tape=%d, want %d skipped and the one good record kept", st.TapeSkipped, st.TapeLen, len(bad))
		}
		if st.ReplayedRecords != wantReplayed {
			t.Fatalf("replayed %d segment records, want %d", st.ReplayedRecords, wantReplayed)
		}
		if _, _, ok := re.QueryRO(good); !ok {
			t.Fatal("the good tape record around the skipped ones was not replayed")
		}
		twin := NewScan(durSeedRel())
		twin.Insert(durSentinelBase, 1, 2)
		assertAnswerEquivalent(t, "recovered", re, twin, durBattery([]store.Value{durSentinelBase}))
		// Closing writes a checkpoint without the skipped records: the
		// next open has nothing left to skip.
		if ok, err := CloseDurable(re); !ok || err != nil {
			t.Fatalf("close: ok=%v err=%v", ok, err)
		}
		again, err := OpenDurable(Sideways, nil, dir, opts)
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		defer CloseDurable(again)
		if st, _ := DurStatsOf(again); st.TapeSkipped != 0 || st.TapeLen == 0 || !st.CleanShutdown {
			t.Fatalf("second reopen: %+v", st)
		}
	}

	// crashImage runs the good workload and returns a copy of the directory
	// as a kill would leave it (no Close): seed checkpoint + live segment.
	crashImage := func(t *testing.T) string {
		t.Helper()
		src := t.TempDir()
		e, err := OpenDurable(Sideways, durSeedRel(), src, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer CloseDurable(e)
		e.Query(good)
		if key := e.Insert(durSentinelBase, 1, 2); key < 0 {
			t.Fatal("insert refused")
		}
		dir := filepath.Join(t.TempDir(), "crash")
		copyDurDir(t, src, dir)
		return dir
	}

	t.Run("segment", func(t *testing.T) {
		dir := crashImage(t)
		seg, err := os.ReadFile(wal.SegmentPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		// Append at the end of the records, before the preallocated zeros.
		valid, err := wal.Scan(seg, func(int64, wal.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		seg = seg[:valid]
		for _, rec := range bad {
			seg = wal.AppendRecord(seg, rec)
		}
		if err := os.WriteFile(wal.SegmentPath(dir, 0), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, 2+len(bad)) // good crack + insert + the skipped ones
	})

	t.Run("checkpoint", func(t *testing.T) {
		dir := crashImage(t)
		// Fold the segment into a checkpoint the way an older binary would
		// have: its tape carries the bad records around the good one.
		re, err := OpenDurable(Sideways, nil, dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := CloseDurable(re); !ok || err != nil {
			t.Fatalf("close: ok=%v err=%v", ok, err)
		}
		cp, err := wal.LoadCheckpoint(dir)
		if err != nil || cp == nil || len(cp.Tape) != 1 {
			t.Fatalf("load checkpoint: %v (%+v)", err, cp)
		}
		cp.Tape = append(append(append([]wal.Record(nil), bad[0]), cp.Tape...), bad[1:]...)
		if err := wal.WriteCheckpoint(dir, cp); err != nil {
			t.Fatal(err)
		}
		check(t, dir, 0)
	})
}

// TestDurableIgnoresUnknownKeys: a delete of a key no tuple has is ignored,
// and stays ignored across a clean restart (tombstones in the checkpoint)
// and a crash (the WAL tail), after an insert has given a tuple that key.
func TestDurableIgnoresUnknownKeys(t *testing.T) {
	base := buildRel(rand.New(rand.NewSource(3)), 100, []string{"A", "B"}, 50)
	qs := []Query{{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 100)}}, Projs: []string{"A", "B"}}}
	oracle := New(Scan, cloneRel(base))
	oracle.Insert(70, 7)
	for _, kind := range []Kind{SelCrack, Sideways} {
		for _, clean := range []bool{true, false} {
			dir := t.TempDir()
			opts := DurableOptions{CheckpointBytes: -1}
			e, err := OpenDurable(kind, cloneRel(base), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			e.Delete(100)
			e.Delete(-1)
			if key := e.Insert(70, 7); key != 100 {
				t.Fatalf("%v: insert key %d, want 100", kind, key)
			}
			assertAnswerEquivalent(t, kind.String()+" live", e, oracle, qs)
			img := dir
			if !clean {
				img = filepath.Join(t.TempDir(), "crash")
				copyDurDir(t, dir, img)
			}
			CloseDurable(e)
			rec, err := OpenDurable(kind, nil, img, opts)
			if err != nil {
				t.Fatalf("%v: recovery: %v", kind, err)
			}
			assertAnswerEquivalent(t, fmt.Sprintf("%v recovered (clean %v)", kind, clean), rec, oracle, qs)
			CloseDurable(rec)
		}
	}
}

// TestDurableCheckpointsEachDeadKeyOnce pins the tombstone bound (doc.go
// "Invariants"): however often a key is deleted, and however many deletes
// name keys no tuple has, a checkpoint holds each dead key once, so its
// tombstones never outnumber the rows — when written by the process that
// took the deletes, and again after recovery from that checkpoint or from
// the WAL tail.
func TestDurableCheckpointsEachDeadKeyOnce(t *testing.T) {
	base := buildRel(rand.New(rand.NewSource(5)), 100, []string{"A", "B"}, 50)
	qs := []Query{{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 50)}}, Projs: []string{"A", "B"}}}
	oracle := New(Scan, cloneRel(base))
	oracle.Delete(3)
	oracle.Delete(7)
	wantDead := func(t *testing.T, tag, dir string) {
		t.Helper()
		cp, err := wal.LoadCheckpoint(dir)
		if err != nil || cp == nil {
			t.Fatalf("%s: load checkpoint: %v", tag, err)
		}
		if fmt.Sprint(cp.Dead) != "[3 7]" {
			t.Fatalf("%s: checkpoint tombstones %v, want [3 7]", tag, cp.Dead)
		}
	}
	for _, kind := range []Kind{Scan, SelCrack, Sideways, PartialSideways} {
		for _, clean := range []bool{true, false} {
			tag := fmt.Sprintf("%v (clean %v)", kind, clean)
			dir := t.TempDir()
			opts := DurableOptions{CheckpointBytes: -1}
			e, err := OpenDurable(kind, cloneRel(base), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				e.Delete(7)
				e.Delete(-1)
				e.Delete(100 + i)
			}
			e.Delete(3)
			img := dir
			if !clean {
				img = filepath.Join(t.TempDir(), "crash")
				copyDurDir(t, dir, img)
			}
			CloseDurable(e)
			wantDead(t, tag+" live", dir)
			rec, err := OpenDurable(kind, nil, img, opts)
			if err != nil {
				t.Fatalf("%s: recovery: %v", tag, err)
			}
			rec.Delete(7)
			assertAnswerEquivalent(t, tag+" recovered", rec, oracle, qs)
			CloseDurable(rec)
			wantDead(t, tag+" recovered", img)
		}
	}
}
