package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"crackstore/internal/store"
)

// testCheckpoint builds a column-dominated checkpoint shaped like a durable
// engine's: six attributes, a few tombstones, a short crack tape.
func testCheckpoint(rows int) *Checkpoint {
	cp := &Checkpoint{Seq: 9, Name: "R", Attrs: []string{"A", "B", "C", "D", "E", "F"}}
	for c := range cp.Attrs {
		col := make([]Value, rows)
		for i := range col {
			col[i] = Value(i*7+c) - 3
		}
		cp.Cols = append(cp.Cols, col)
	}
	for k := 0; k < 100 && k < rows; k++ {
		cp.Dead = append(cp.Dead, k*13%rows)
	}
	for q := 0; q < 50; q++ {
		cp.Tape = append(cp.Tape, Record{
			Type:  RecCrack,
			Preds: []PredRec{{Attr: "A", Pred: store.Range(Value(q), Value(q+500))}},
			Projs: []string{"B", "C"},
		})
	}
	return cp
}

// appendString is the reference's string encoding: a uvarint length, then
// the bytes.
func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendCheckpointReference is the append-grown encoder encodeCheckpoint
// replaced, kept as the definition of the on-disk format.
func appendCheckpointReference(cp *Checkpoint) []byte {
	dst := []byte{checkpointVersion}
	dst = binary.AppendUvarint(dst, cp.Seq)
	dst = appendString(dst, cp.Name)
	dst = binary.AppendUvarint(dst, uint64(len(cp.Attrs)))
	for _, a := range cp.Attrs {
		dst = appendString(dst, a)
	}
	rows := 0
	if len(cp.Cols) > 0 {
		rows = len(cp.Cols[0])
	}
	dst = binary.AppendUvarint(dst, uint64(rows))
	for _, col := range cp.Cols {
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(cp.Dead)))
	for _, k := range cp.Dead {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	dst = binary.AppendUvarint(dst, uint64(len(cp.Tape)))
	for _, rec := range cp.Tape {
		p := AppendPayload(nil, rec)
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// TestEncodeCheckpointFormatUnchanged: the in-place encoder writes the bytes
// the append-grown one did, under the same self-validating frame header.
func TestEncodeCheckpointFormatUnchanged(t *testing.T) {
	for _, cp := range []*Checkpoint{testCheckpoint(1000), testCheckpoint(0), {Seq: 1, Name: "empty"}} {
		framed := encodeCheckpoint(cp)
		want := appendCheckpointReference(cp)
		if !bytes.Equal(framed[frameHeader:], want) {
			t.Fatalf("%s/%d rows: payload differs from the append-grown reference", cp.Name, len(cp.Cols))
		}
		n := binary.BigEndian.Uint32(framed)
		if int(n) != len(want) || n^lenEcho != binary.BigEndian.Uint32(framed[4:]) ||
			crc32.ChecksumIEEE(want) != binary.BigEndian.Uint32(framed[8:]) {
			t.Fatalf("%s: frame header does not validate", cp.Name)
		}
	}
}

// TestWriteCheckpointAllocatesFrameOnce: a checkpoint write allocates its
// frame at the exact size instead of growing the payload by doubling and
// copying it into a second buffer — at most 1.1x the framed size in all.
func TestWriteCheckpointAllocatesFrameOnce(t *testing.T) {
	cp := testCheckpoint(200_000)
	dir := t.TempDir()
	framed := len(encodeCheckpoint(cp))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(framed) {
		t.Fatalf("WriteCheckpoint allocated %d bytes for a %d-byte frame (%.2fx), want at most 1.1x",
			got, framed, float64(got)/float64(framed))
	}
}

// BenchmarkWriteCheckpoint writes the benchmark relation's shape: 1M rows of
// six attributes, a 48 MB frame, fsynced and renamed into place.
func BenchmarkWriteCheckpoint(b *testing.B) {
	cp := testCheckpoint(1_000_000)
	dir := b.TempDir()
	b.SetBytes(int64(len(encodeCheckpoint(cp))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCheckpoint(dir, cp); err != nil {
			b.Fatal(err)
		}
	}
}
