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

// TestReaderRoundTrip reads back what the shared appenders wrote, and Done
// holds exactly when every byte was read.
func TestReaderRoundTrip(t *testing.T) {
	b := frame.AppendString(nil, "attr")
	b = frame.AppendBool(b, true)
	b = frame.AppendValues(b, []int64{-1, 1 << 40})
	b = frame.AppendValues(b, nil)
	b = binary.AppendVarint(b, -300)
	r := frame.NewReader(b)
	s, ok, vals, empty := r.Str(), r.Bool(), r.Values(), r.Values()
	if s != "attr" || !ok || len(vals) != 2 || vals[0] != -1 || vals[1] != 1<<40 || empty == nil || len(empty) != 0 {
		t.Fatalf("read back %q %v %v %#v", s, ok, vals, empty)
	}
	if r.Done() {
		t.Fatal("Done with a varint left to read")
	}
	if v := r.Varint(); v != -300 || !r.Done() {
		t.Fatalf("last varint %d, Done %v", v, r.Done())
	}
}

// TestReaderLatchesFailure: after the first failed read every read returns
// its zero value and consumes nothing, and Done stays false — also for a
// failure the decoder itself declares with Fail.
func TestReaderLatchesFailure(t *testing.T) {
	for name, fail := range map[string]func(*frame.Reader){
		"overrun":     func(r *frame.Reader) { r.Bytes(5) },
		"bool 2":      func(r *frame.Reader) { r.Bool() },
		"caller Fail": func(r *frame.Reader) { r.Fail() },
	} {
		r := frame.NewReader([]byte{2, 1, 1, 1})
		fail(&r)
		if v, s, n := r.Byte(), r.Str(), r.Count(1); v != 0 || s != "" || n != 0 || r.Done() {
			t.Errorf("%s: reads after the failure gave %d %q %d, Done %v", name, v, s, n, r.Done())
		}
	}
}

// TestReaderCountBound: Count accepts a count whose elements fit the
// remaining bytes at minSize each and fails the next one up, including
// counts that would overflow an int or a byte size.
func TestReaderCountBound(t *testing.T) {
	for _, c := range []struct {
		count   uint64
		minSize int
		ok      bool
	}{
		{3, 8, true}, {4, 8, false}, {25, 1, true}, {26, 1, false},
		{25, 0, true}, {26, 0, false}, {1 << 63, 8, false}, {1<<64 - 1, 1, false},
	} {
		r := frame.NewReader(append(binary.AppendUvarint(nil, c.count), make([]byte, 25)...))
		n := r.Count(c.minSize)
		r.Bytes(25)
		if want := map[bool]uint64{true: c.count}[c.ok]; uint64(n) != want || r.Done() != c.ok {
			t.Errorf("Count(%d) of %d over 25 bytes = %d, Done %v", c.minSize, c.count, n, r.Done())
		}
	}
}
