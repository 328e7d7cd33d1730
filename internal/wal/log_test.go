package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"crackstore/internal/store"
)

// memFile is an in-memory File with switchable failure modes.
type memFile struct {
	mu      sync.Mutex
	buf     []byte
	synced  int
	failNow error // next op fails with this
}

func (m *memFile) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failNow != nil {
		err := m.failNow
		// Model a torn write: half the buffer lands.
		m.buf = append(m.buf, p[:len(p)/2]...)
		return 0, err
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memFile) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failNow != nil {
		return m.failNow
	}
	m.synced = len(m.buf)
	return nil
}

func (m *memFile) Close() error { return nil }

func TestLogAppendAndGroupCommit(t *testing.T) {
	mf := &memFile{}
	l := newLog(mf, 0, Options{Sync: SyncGroup})
	const writers = 8
	const each = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(Record{Type: RecDelete, Keys: []int{w*1000 + i}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends=%d want %d", st.Appends, writers*each)
	}
	// Every record was acked, so every record must be inside the synced
	// prefix.
	if int64(mf.synced) != l.Size() {
		t.Fatalf("synced=%d size=%d: acked records not durable", mf.synced, l.Size())
	}
	n := 0
	valid, err := Scan(mf.buf, func(int64, Record) error { n++; return nil })
	if err != nil || valid != int64(len(mf.buf)) || n != writers*each {
		t.Fatalf("scan: valid=%d/%d recs=%d err=%v", valid, len(mf.buf), n, err)
	}
	if st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs=%d exceed appends=%d", st.Fsyncs, st.Appends)
	}
	t.Logf("appends=%d fsyncs=%d groupcommits=%d", st.Appends, st.Fsyncs, st.GroupCommits)
}

func TestLogPoisonOnWriteError(t *testing.T) {
	mf := &memFile{}
	l := newLog(mf, 0, Options{Sync: SyncGroup})
	if err := l.Append(Record{Type: RecCheckpoint, Seq: 1}); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	boom := errors.New("boom")
	mf.failNow = boom
	if err := l.Append(Record{Type: RecDelete, Keys: []int{1}}); err == nil {
		t.Fatal("append over failing file succeeded")
	}
	mf.failNow = nil
	// Sticky: the storage healed but the log must keep refusing, because
	// the durable prefix is unknowable after the failure.
	if err := l.Append(Record{Type: RecDelete, Keys: []int{2}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poison: %v, want ErrPoisoned", err)
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after poison")
	}
	// The torn half-record in the buffer must scan as a torn tail, leaving
	// the pre-failure record intact.
	n := 0
	if _, err := Scan(mf.buf, func(int64, Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("post-poison image: recs=%d err=%v, want 1 intact record", n, err)
	}
}

func TestLogPoisonOnSyncError(t *testing.T) {
	mf := &memFile{}
	l := newLog(mf, 0, Options{Sync: SyncGroup})
	end, err := l.AppendBuffered(Record{Type: RecCheckpoint, Seq: 1})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	mf.failNow = errors.New("fsync boom")
	if err := l.WaitDurable(end); err == nil {
		t.Fatal("WaitDurable succeeded over failing fsync")
	}
	if _, err := l.AppendBuffered(Record{Type: RecCheckpoint, Seq: 2}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after fsync poison: %v", err)
	}
}

func TestOpenLogTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var buf []byte
	buf = AppendRecord(buf, Record{Type: RecDelete, Keys: []int{5}})
	whole := len(buf)
	buf = AppendRecord(buf, Record{Type: RecDelete, Keys: []int{6}})
	torn := buf[:whole+7] // mid-header tear
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	valid, err := Scan(torn, func(int64, Record) error { return nil })
	if err != nil || valid != int64(whole) {
		t.Fatalf("scan: valid=%d err=%v, want %d", valid, err, whole)
	}
	if tb := TornBytes(torn[valid:]); tb != 7 {
		t.Fatalf("torn=%d want 7", tb)
	}
	l, err := OpenLog(path, valid, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if l.Size() != int64(whole) {
		t.Fatalf("size=%d want %d", l.Size(), whole)
	}
	// Past the frontier the file holds zeros (the preallocated step), not
	// the stale torn bytes: fallocate keeps what is there, so OpenLog must
	// truncate first.
	b, _ := os.ReadFile(path)
	if TornBytes(b[whole:]) != 0 {
		t.Fatalf("stale bytes past the frontier: % x", b[whole:whole+7])
	}
	// Appending after truncation must continue at the valid end.
	if err := l.Append(Record{Type: RecDelete, Keys: []int{7}}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, _ = os.ReadFile(path)
	var keys []int
	valid, err = Scan(b, func(_ int64, rec Record) error { keys = append(keys, rec.Keys...); return nil })
	if err != nil || valid != int64(len(b)) {
		t.Fatalf("reread: valid=%d/%d err=%v", valid, len(b), err)
	}
	if len(keys) != 2 || keys[0] != 5 || keys[1] != 7 {
		t.Fatalf("keys=%v want [5 7]", keys)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestLogPreallocatesAheadOfFrontier: a segment holds its records plus at
// most one preallocated step, the step is extended before an append would
// cross it, Scan stops at the zero tail, and Close trims the file to its
// records.
func TestLogPreallocatesAheadOfFrontier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, 0, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if fileSize(t, path) != preallocStep {
		t.Skipf("fallocate refused here (size %d after open)", fileSize(t, path))
	}
	// 64 KiB records: the log crosses its first step after 16 of them.
	rec := Record{Type: RecInsert, Width: 1, Vals: make([]Value, 8<<10)}
	for i := 0; i < 40; i++ {
		rec.Vals[0] = Value(i + 1)
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		size, written := fileSize(t, path), l.Size()
		if size <= written || size > written+preallocStep {
			t.Fatalf("append %d: file %d bytes for %d written, want preallocated space past them, at most one %d-byte step", i, size, written, preallocStep)
		}
	}
	if l.Size() < 2*preallocStep {
		t.Fatalf("log %d bytes never crossed a second step", l.Size())
	}
	b, _ := os.ReadFile(path)
	n := 0
	valid, err := Scan(b, func(int64, Record) error { n++; return nil })
	if err != nil || valid != l.Size() || n != 40 || TornBytes(b[valid:]) != 0 {
		t.Fatalf("scan of the live file: valid=%d want %d, recs=%d, torn=%d, err=%v", valid, l.Size(), n, TornBytes(b[valid:]), err)
	}
	written := l.Size()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if size := fileSize(t, path); size != written {
		t.Fatalf("closed file %d bytes, want its %d written", size, written)
	}
}

// TestLogWithoutFallocate: where fallocate is refused, a log appends, syncs
// and recovers as it would with no preallocation at all.
func TestLogWithoutFallocate(t *testing.T) {
	calls := 0
	fallocate = func(*os.File, int64, int64) error { calls++; return syscall.EOPNOTSUPP }
	t.Cleanup(func() { fallocate = fallocateFile })

	path := filepath.Join(t.TempDir(), "wal.log")
	var valid int64
	for round := 0; round < 2; round++ {
		l, err := OpenLog(path, valid, Options{Sync: SyncGroup})
		if err != nil {
			t.Fatalf("round %d: open: %v", round, err)
		}
		for i := 0; i < 5; i++ {
			if err := l.Append(Record{Type: RecDelete, Keys: []int{10*round + i}}); err != nil {
				t.Fatalf("round %d: append: %v", round, err)
			}
			if size := fileSize(t, path); size != l.Size() {
				t.Fatalf("round %d: file %d bytes, log %d", round, size, l.Size())
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("round %d: sync: %v", round, err)
		}
		if st := l.Stats(); st.Appends != 5 || st.Fsyncs < 5 {
			t.Fatalf("round %d: stats %+v", round, st)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		b, _ := os.ReadFile(path)
		var keys []int
		valid, err = Scan(b, func(_ int64, rec Record) error { keys = append(keys, rec.Keys...); return nil })
		if err != nil || valid != int64(len(b)) || len(keys) != 5*(round+1) {
			t.Fatalf("round %d: recovered %v (valid %d of %d, err %v)", round, keys, valid, len(b), err)
		}
	}
	if calls != 2 {
		t.Fatalf("fallocate tried %d times, want once per open", calls)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cp := &Checkpoint{
		Seq:   3,
		Name:  "R",
		Attrs: []string{"A", "B"},
		Cols:  [][]Value{{1, 2, 3}, {10, 20, 30}},
		Dead:  []int{1},
		Tape: []Record{
			{Type: RecCrack, Preds: []PredRec{{Attr: "A", Pred: store.Range(0, 2)}}, Projs: []string{"B"}},
		},
	}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Seq != 3 || got.Name != "R" || len(got.Attrs) != 2 || len(got.Cols) != 2 ||
		len(got.Cols[0]) != 3 || got.Cols[1][2] != 30 || len(got.Dead) != 1 || len(got.Tape) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Tape[0].Preds[0].Attr != "A" {
		t.Fatalf("tape mismatch: %+v", got.Tape[0])
	}

	// Overwrite must be atomic-replace: a second checkpoint fully wins.
	cp.Seq = 4
	cp.Dead = nil
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err = LoadCheckpoint(dir)
	if err != nil || got.Seq != 4 || len(got.Dead) != 0 {
		t.Fatalf("rewrite load: %+v err=%v", got, err)
	}
}

func TestLoadCheckpointMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if cp, err := LoadCheckpoint(dir); cp != nil || err != nil {
		t.Fatalf("missing: cp=%v err=%v, want nil,nil", cp, err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("corrupt checkpoint loaded without error")
	}
}

func TestCleanMarker(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok := TakeCleanMarker(dir); ok {
		t.Fatal("marker present in empty dir")
	}
	if err := WriteCleanMarker(dir, 7, 4096); err != nil {
		t.Fatalf("write: %v", err)
	}
	seq, size, ok := TakeCleanMarker(dir)
	if !ok || seq != 7 || size != 4096 {
		t.Fatalf("take: seq=%d size=%d ok=%v", seq, size, ok)
	}
	// Taking consumes: a second open after a crash must not look clean.
	if _, _, ok := TakeCleanMarker(dir); ok {
		t.Fatal("marker survived TakeCleanMarker")
	}
}

func TestSegmentPathsAndCleanup(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(0); seq < 3; seq++ {
		if err := os.WriteFile(SegmentPath(dir, seq), []byte{}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveSegmentsExcept(dir, 2)
	for seq := uint64(0); seq < 2; seq++ {
		if _, err := os.Stat(SegmentPath(dir, seq)); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived cleanup", seq)
		}
	}
	if _, err := os.Stat(SegmentPath(dir, 2)); err != nil {
		t.Fatalf("kept segment missing: %v", err)
	}
}
