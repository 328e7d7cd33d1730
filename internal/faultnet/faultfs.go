// Storage-side fault injection: the same seeded-draw machinery that breaks
// network streams (see faultnet.go) wrapped around a write-syncer file, so
// the WAL's crash paths — torn appends, short writes, failed fsyncs — can
// be exercised deterministically in ordinary tests. The wrapper
// deliberately satisfies the wal
// package's File seam structurally (io.Writer + Sync + Close) without
// importing it, keeping faultnet dependency-free.

package faultnet

import (
	"fmt"
	"io"
)

// FSFile is the file surface storage faults are injected through;
// *os.File satisfies it.
type FSFile interface {
	io.Writer
	Sync() error
	Close() error
}

// FSFaults configures per-operation storage fault probabilities.
type FSFaults struct {
	// Seed drives every decision, same semantics as Faults.Seed.
	Seed int64

	// TornWriteRate persists only a prefix of the buffer and reports zero
	// bytes written — the on-disk image holds a torn record whose extent
	// the caller cannot know, the shape a power cut leaves behind.
	TornWriteRate float64

	// ShortWriteRate persists a prefix and honestly reports its length
	// with an error (ENOSPC-style partial syscall).
	ShortWriteRate float64

	// SyncErrRate fails a Sync without syncing. Nothing already written is
	// durable beyond what earlier syncs covered — the fsync-gate scenario
	// the WAL's sticky poison exists for.
	SyncErrRate float64
}

// MixFS returns the standard storage chaos mixture at an aggregate rate,
// the disk-side sibling of Mix: torn writes take the largest share because
// they are the fault recovery's torn-tail truncation must handle, with
// short writes and fsync errors exercising the ack-refusal path.
func MixFS(rate float64, seed int64) FSFaults {
	return FSFaults{
		Seed:           seed,
		TornWriteRate:  rate * 0.4,
		ShortWriteRate: rate * 0.3,
		SyncErrRate:    rate * 0.3,
	}
}

// FaultFile wraps an FSFile with seeded storage fault injection. Every
// injected failure carries ErrInjected, and a fault never lies about
// success: a torn or short write returns an error, so the caller's poison
// logic engages while the on-disk bytes model the crash.
type FaultFile struct {
	f   FSFile
	fs  FSFaults
	inj *Injector
}

// WrapFile wraps f with faults drawn from fs.
func WrapFile(f FSFile, fs FSFaults) *FaultFile {
	return &FaultFile{f: f, fs: fs, inj: NewInjector(Faults{Seed: fs.Seed})}
}

func (f *FaultFile) Write(p []byte) (int, error) {
	choice, cut := f.inj.pick([]float64{f.fs.TornWriteRate, f.fs.ShortWriteRate})
	switch choice {
	case 0: // torn: a prefix lands, the caller learns nothing of its size
		n := int(cut * float64(len(p)))
		f.f.Write(p[:n])
		return 0, fmt.Errorf("%w: torn write (%d of %d bytes persisted)", ErrInjected, n, len(p))
	case 1: // short: a prefix lands and is reported
		n := int(cut * float64(len(p)))
		wrote, _ := f.f.Write(p[:n])
		return wrote, fmt.Errorf("%w: short write %d/%d", ErrInjected, wrote, len(p))
	}
	return f.f.Write(p)
}

func (f *FaultFile) Sync() error {
	if choice, _ := f.inj.pick([]float64{f.fs.SyncErrRate}); choice == 0 {
		return fmt.Errorf("%w: fsync failed", ErrInjected)
	}
	return f.f.Sync()
}

func (f *FaultFile) Close() error { return f.f.Close() }
