package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crackstore/internal/frame"
	"crackstore/internal/wal"
	"crackstore/internal/wire"
)

// TestDomainsRejectForeignFrames drives one set of byte strings through
// every reader of the shared header — wire.ReadFrame, wal.Scan and
// wal.LoadCheckpoint: each format accepts its own frames, rejects the
// other's (same layout, different domain constant) and the all-zero
// header, and checks the length echo before it uses the length — a header
// announcing an absurd length with a bad echo is a checksum failure on the
// wire (not a size-limit one, and no payload read is attempted) and a torn
// tail in the log (no slice past the buffer).
func TestDomainsRejectForeignFrames(t *testing.T) {
	rec := wal.Record{Type: wal.RecDelete, Keys: []int{7}}
	walFrame := wal.AppendRecord(nil, rec)
	wireFrame := wire.AppendFrame(nil, walFrame[frame.HeaderSize:]) // same payload, wire's domain
	huge := make([]byte, frame.HeaderSize)
	binary.BigEndian.PutUint32(huge, 0xFFFFFFF0)

	for _, c := range []struct {
		name   string
		b      []byte
		wireOK bool
		walOK  bool
	}{
		{"wire frame", wireFrame, true, false},
		{"wal frame", walFrame, false, true},
		{"all-zero header", make([]byte, frame.HeaderSize), false, false},
		{"absurd length, bad echo", huge, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			payload, err := wire.ReadFrame(bytes.NewReader(c.b), 0, nil)
			if c.wireOK {
				if err != nil || !bytes.Equal(payload, c.b[frame.HeaderSize:]) {
					t.Fatalf("wire.ReadFrame rejected its own frame: %v", err)
				}
			} else if !errors.Is(err, wire.ErrChecksum) {
				t.Fatalf("wire.ReadFrame: err=%v, want ErrChecksum", err)
			}

			records := 0
			valid, err := wal.Scan(c.b, func(int64, wal.Record) error { records++; return nil })
			if err != nil {
				t.Fatalf("wal.Scan: %v", err)
			}
			if want := map[bool]int{true: 1, false: 0}[c.walOK]; records != want || valid != int64(want*len(c.b)) {
				t.Fatalf("wal.Scan accepted %d records over %d bytes, want %d", records, valid, want)
			}

			if !c.walOK {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "checkpoint"), c.b, 0o644); err != nil {
					t.Fatal(err)
				}
				if cp, err := wal.LoadCheckpoint(dir); err == nil {
					t.Fatalf("wal.LoadCheckpoint accepted a foreign frame: %+v", cp)
				}
			}
		})
	}
}
