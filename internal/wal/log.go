// Package wal is the durability layer of OpenDurable: a CRC-framed,
// append-only record log with group-commit fsync (Log), the record codec
// with its longest-valid-prefix Scan, atomically replaced checkpoints, and
// per-checkpoint log segments.
//
// A segment is preallocated one step (1 MiB) ahead of its write frontier
// with fallocate, and extended by another step whenever an append would
// cross the allocated end, so the fsync behind an ack does not also commit
// a size and extent change. The bytes past the frontier read back as
// zeros, and an all-zero frame header never validates (the masked length
// echo disagrees with a zero length), so Scan stops at the first zero
// header exactly as it stops at a torn record. A segment file holds at
// most one step past its records; a clean Close trims it to its records.
// Where fallocate is refused, or off Linux, a segment grows as it is
// written.
//
// Why preallocate, and why Sync stays fsync: serial 54-byte appends, each
// followed by one sync, 3,000 per run, on ext4 (2-core VM, go1.24); the
// range of the per-sync p50 over repeated runs:
//
//	growing file, fsync           66–93 µs
//	fallocate first, fsync        47–61 µs
//	zero-filled by writes, fsync  51–89 µs (slower than fallocate in every paired run)
//	growing file, fdatasync       73–90 µs
//	fallocate first, fdatasync    47–59 µs (no faster than fsync)
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/obs"
)

// SyncMode selects when an append becomes durable.
type SyncMode int

const (
	// SyncGroup (the default) makes every acked append wait for an fsync
	// covering it, but lets concurrent appends share fsyncs: one waiter
	// drives the Sync syscall while the others piggyback on its barrier. A
	// strictly serial writer pays one fsync per append.
	SyncGroup SyncMode = iota
	// SyncNone never waits: appends are acked after the OS write alone.
	// A crash may lose the acked tail — this mode is excluded from the
	// zero-acked-write-loss guarantee and exists for bulk loads and
	// benchmark baselines.
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("syncmode(%d)", int(m))
}

// ParseSyncMode parses the -fsync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want group or none)", s)
}

// File is the storage a Log writes to: *os.File satisfies it, and the
// faultfs wrapper in internal/faultnet injects torn writes, short writes,
// and fsync errors through the same seam.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a Log.
type Options struct {
	Sync SyncMode
	// Wrap, if set, wraps the opened file before use (fault injection).
	Wrap func(File) File
}

// ErrPoisoned reports an append refused because an earlier write or fsync
// failed. After a storage error the log's durable prefix is unknowable, so
// the log stops acking permanently (the PostgreSQL fsync-gate lesson:
// retrying fsync after failure silently drops the dirty pages), and the
// caller must recover from the on-disk state.
var ErrPoisoned = errors.New("wal: log poisoned by earlier storage error")

// Stats counts log activity.
type Stats struct {
	Appends int64 // records appended
	Bytes   int64 // bytes written
	Fsyncs  int64 // Sync syscalls issued
	// GroupCommits counts appends whose durability wait was satisfied by
	// an fsync another append drove — the group-commit win.
	GroupCommits int64
}

// Log is a CRC-framed append-only record log with group-commit fsync.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast when synced advances or err latches

	f    File
	mode SyncMode

	// raw is the segment file under f (nil when newLog wraps a test's
	// file): preallocation and
	// Close's trim act on it directly, so a Wrap sees only record bytes.
	raw *os.File
	// alloc is the end of the preallocated region; appends write below it
	// without growing the file. Negative once fallocate has failed:
	// preallocation is then off for this log.
	alloc int64

	written int64 // bytes handed to f.Write without error
	synced  int64 // bytes covered by a successful Sync
	syncing bool  // a waiter is inside f.Sync

	err error // sticky first storage error

	stats Stats

	// fsyncHist, when set via ObserveFsync, receives the latency of every
	// Sync syscall (observability bridge). An atomic pointer so it can be
	// attached to a live log; nil costs one load per fsync.
	fsyncHist atomic.Pointer[obs.Histogram]

	buf []byte // encode scratch, reused under mu
}

// ObserveFsync attaches a latency histogram to the log's fsync path:
// every subsequent Sync syscall observes its wall time. Safe to call on
// a live log; pass nil to detach.
func (l *Log) ObserveFsync(h *obs.Histogram) { l.fsyncHist.Store(h) }

// preallocStep is how far ahead of the write frontier a segment is
// allocated, and how much more each extension adds.
const preallocStep = 1 << 20

// fallocate is the preallocation call; tests swap it to make it fail.
var fallocate = fallocateFile

// OpenLog opens (creating if needed) the segment at path, whose first valid
// bytes are its record prefix as Scan found it (0 for a new segment),
// and positions appends there. Anything past the prefix — a torn tail,
// stale bytes, or an earlier preallocated tail — is truncated and the
// truncation fsynced before the segment is preallocated one step past the
// prefix: fallocate keeps existing bytes, so they must be gone first.
func OpenLog(path string, valid int64, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := truncateTo(f, valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l := newLog(f, valid, opts)
	l.raw = f
	l.alloc = valid
	l.growLocked(valid)
	return l, nil
}

// truncateTo cuts f back to size bytes, durably, if it is longer.
func truncateTo(f *os.File, size int64) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	switch {
	case fi.Size() < size:
		return fmt.Errorf("wal: segment %s has %d bytes, fewer than its %d-byte valid prefix", f.Name(), fi.Size(), size)
	case fi.Size() == size:
		return nil
	}
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// TornBytes is the length of a segment's torn tail, given tail, the bytes
// past its valid prefix: through the last non-zero byte. The zeros after it
// are preallocated space no write reached.
func TornBytes(tail []byte) int64 {
	for i := len(tail) - 1; i >= 0; i-- {
		if tail[i] != 0 {
			return int64(i + 1)
		}
	}
	return 0
}

// newLog wraps an already-positioned file whose first size bytes are valid
// records. Tests call it directly to drive in-memory files.
func newLog(f File, size int64, opts Options) *Log {
	if opts.Wrap != nil {
		f = opts.Wrap(f)
	}
	l := &Log{f: f, mode: opts.Sync, written: size, synced: size, alloc: -1}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// growLocked preallocates the segment from the allocated end through one
// step past end. If fallocate fails (a filesystem that does not support it,
// a platform without it, a full disk), preallocation stops and appends grow
// the file as they write — the log itself is unaffected.
func (l *Log) growLocked(end int64) {
	if l.raw == nil || l.alloc < 0 {
		return
	}
	if err := fallocate(l.raw, l.alloc, end+preallocStep-l.alloc); err != nil {
		l.alloc = -1
		return
	}
	l.alloc = end + preallocStep
}

// AppendBuffered frames and writes rec under the log lock, returning the
// log size after the record. The record is in the OS buffer but not yet
// durable; pass the returned end to WaitDurable before acking. Callers
// that hold their own ordering lock across AppendBuffered get log order ==
// apply order, which is what makes replay reproduce their state.
func (l *Log) AppendBuffered(rec Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, ErrPoisoned
	}
	l.buf = AppendRecord(l.buf[:0], rec)
	if end := l.written + int64(len(l.buf)); end > l.alloc {
		l.growLocked(end)
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		// A short or torn write leaves bytes past l.written that recovery
		// will scan; they are at worst a torn tail (the frame CRC cannot
		// validate a half-written record) so the on-disk image stays
		// recoverable — but this log can no longer know its durable end.
		l.poisonLocked(fmt.Errorf("wal: append write: %w", err))
		return 0, l.err
	}
	if n != len(l.buf) {
		l.poisonLocked(fmt.Errorf("wal: append short write: %d of %d bytes", n, len(l.buf)))
		return 0, l.err
	}
	l.written += int64(len(l.buf))
	l.stats.Appends++
	l.stats.Bytes += int64(len(l.buf))
	return l.written, nil
}

// WaitDurable blocks until the log is durable through offset end (or
// returns immediately under SyncNone). Concurrent waiters elect one to
// drive the Sync syscall; the rest sleep on the condvar and are covered by
// whatever sync lands past their offset — group commit.
func (l *Log) WaitDurable(end int64) error {
	if l.mode == SyncNone {
		return nil
	}
	piggybacked := false
	for {
		target, drive, err := l.nextSync(end, &piggybacked)
		if !drive {
			return err
		}
		l.syncOnce(target)
	}
}

// nextSync is one turn of WaitDurable under the log lock. It returns the
// outcome once the log is durable through end or poisoned. Otherwise it
// waits out the fsync in flight, if any (setting *piggybacked), and then
// elects the caller to drive the next one through target.
func (l *Log) nextSync(end int64, piggybacked *bool) (target int64, drive bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return 0, false, l.err
		}
		if l.synced >= end {
			if *piggybacked {
				l.stats.GroupCommits++
			}
			return 0, false, nil
		}
		if !l.syncing {
			break
		}
		*piggybacked = true
		l.cond.Wait()
	}
	l.syncing = true
	// Snapshot the written frontier: the fsync covers every byte written
	// before the syscall starts, including appends that landed while we
	// were waiting.
	return l.written, true, nil
}

// syncOnce drives one Sync syscall (caller set l.syncing) and publishes
// the outcome.
func (l *Log) syncOnce(target int64) {
	var t0 time.Time
	h := l.fsyncHist.Load()
	if h != nil {
		t0 = time.Now()
	}
	err := l.f.Sync()
	if h != nil {
		h.Observe(time.Since(t0))
	}
	l.publishSync(target, err)
}

// publishSync ends the fsync syncOnce drove and wakes every waiter.
func (l *Log) publishSync(target int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	l.stats.Fsyncs++
	if err != nil {
		l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
	} else if target > l.synced {
		l.synced = target
	}
	l.cond.Broadcast()
}

// Append writes rec and waits for durability per the sync mode. It is the
// one-call form for callers without their own ordering lock.
func (l *Log) Append(rec Record) error {
	end, err := l.AppendBuffered(rec)
	if err != nil {
		return err
	}
	return l.WaitDurable(end)
}

// Sync forces durability of everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	end := l.written
	l.mu.Unlock()
	if end == 0 {
		return l.Err()
	}
	// WaitDurable honors SyncNone by returning immediately; a manual Sync
	// should flush even then (clean shutdown under -fsync none).
	if l.mode == SyncNone {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.err != nil {
			return l.err
		}
		if err := l.f.Sync(); err != nil {
			l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
			return l.err
		}
		l.stats.Fsyncs++
		if end > l.synced {
			l.synced = end
		}
		return nil
	}
	return l.WaitDurable(end)
}

// Size returns the log size in bytes (written, not necessarily synced).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// Err returns the sticky storage error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close trims the preallocated tail, so the segment file ends at its
// records, fsyncs the trim, and closes the file. A clean-shutdown marker
// written after a successful Close may therefore record the file's size;
// a failed trim is returned. A poisoned log is closed untrimmed (recovery
// reads its zero tail as end of log), and a log that never preallocated
// is closed without a sync: callers that need a durable close call Sync
// first. Close waits out any fsync in flight, so a concurrent WaitDurable
// can never have its syscall yanked to EBADF — which would poison the log
// and fail acks whose data is actually durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	var err error
	if l.err == nil && l.alloc > l.written {
		if err = l.raw.Truncate(l.written); err == nil {
			err = l.raw.Sync()
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) poisonLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}
