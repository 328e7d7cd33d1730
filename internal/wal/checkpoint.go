package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crackstore/internal/frame"
)

// File names inside a durable data directory.
const (
	checkpointFile = "checkpoint"
	cleanFile      = "CLEAN"
	segmentPrefix  = "wal."
	segmentSuffix  = ".log"
)

// checkpointVersion guards the checkpoint payload layout.
const checkpointVersion = 1

// Checkpoint is a full materialized snapshot of a durable store: the base
// columns, the tombstoned keys, and the crack tape accumulated since the
// relation was seeded. Recovery rebuilds the relation from Cols/Dead and
// replays Tape to re-crack the same layout, then applies the WAL segment
// tail on top.
type Checkpoint struct {
	Seq   uint64
	Name  string   // relation name
	Attrs []string // attribute order
	Cols  [][]Value
	Dead  []int    // tombstoned keys; the durable engine writes each once, ascending
	Tape  []Record // RecCrack records, in query order
}

// SegmentPath returns the WAL segment file for checkpoint sequence seq.
// Each checkpoint opens a fresh segment, so "which WAL bytes postdate the
// checkpoint" is answered by file identity, never by offsets into a shared
// file — offsets would be ambiguous after a crash that loses unsynced WAL
// tail while the (separately fsynced) checkpoint survives.
func SegmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

// RemoveSegmentsExcept deletes every WAL segment in dir other than keep's.
// Best-effort: a leftover segment wastes disk but cannot corrupt recovery,
// since recovery only ever reads the segment named by the checkpoint.
func RemoveSegmentsExcept(dir string, keep uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepName := filepath.Base(SegmentPath(dir, keep))
	for _, e := range ents {
		name := e.Name()
		if name == keepName || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// WriteCheckpoint atomically replaces dir's checkpoint: encode, write to a
// temp file, fsync it, rename over the checkpoint name, fsync the
// directory. A crash at any point leaves either the old checkpoint or the
// new one, never a torn hybrid (the single-frame CRC would expose one
// anyway).
func WriteCheckpoint(dir string, cp *Checkpoint) error {
	framed := encodeCheckpoint(cp)

	tmp := filepath.Join(dir, checkpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(framed); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// LoadCheckpoint reads dir's checkpoint. A missing file returns (nil, nil)
// — a fresh directory. Any framing or decode failure is a hard error: the
// checkpoint is written atomically, so a bad one is not a torn tail to
// shrug off but corruption that recovery must surface.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(b) < frameHeader {
		return nil, fmt.Errorf("wal: checkpoint too short: %d bytes", len(b))
	}
	n, ok := frame.Len(b, lenEcho)
	if !ok {
		return nil, fmt.Errorf("wal: checkpoint header echo mismatch")
	}
	if int64(n) != int64(len(b)-frameHeader) {
		return nil, fmt.Errorf("wal: checkpoint length %d does not match file body %d", n, len(b)-frameHeader)
	}
	payload := b[frameHeader:]
	if !frame.SumOK(b, payload) {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	return decodeCheckpointPayload(payload)
}

// encodeCheckpoint returns cp as one checkpoint frame. The columns are all
// but a sliver of a checkpoint and their encoded size is known up front, so
// the frame is allocated once at its exact size and the values are stored in
// place; only the small variable-length parts around them (names before,
// tombstones and tape after) are staged in append-grown buffers.
func encodeCheckpoint(cp *Checkpoint) []byte {
	rows := 0
	if len(cp.Cols) > 0 {
		rows = len(cp.Cols[0])
	}
	head := []byte{checkpointVersion}
	head = binary.AppendUvarint(head, cp.Seq)
	head = frame.AppendString(head, cp.Name)
	head = binary.AppendUvarint(head, uint64(len(cp.Attrs)))
	for _, a := range cp.Attrs {
		head = frame.AppendString(head, a)
	}
	head = binary.AppendUvarint(head, uint64(rows))

	tail := binary.AppendUvarint(nil, uint64(len(cp.Dead)))
	for _, k := range cp.Dead {
		tail = binary.AppendUvarint(tail, uint64(k))
	}
	tail = binary.AppendUvarint(tail, uint64(len(cp.Tape)))
	var rec []byte
	for _, r := range cp.Tape {
		rec = AppendPayload(rec[:0], r)
		tail = binary.AppendUvarint(tail, uint64(len(rec)))
		tail = append(tail, rec...)
	}

	framed := make([]byte, frameHeader+len(head)+8*rows*len(cp.Cols)+len(tail))
	payload := framed[frameHeader:]
	off := copy(payload, head)
	for _, col := range cp.Cols {
		if len(col) != rows {
			panic("wal: checkpoint with ragged columns")
		}
		for _, v := range col {
			binary.LittleEndian.PutUint64(payload[off:], uint64(v))
			off += 8
		}
	}
	copy(payload[off:], tail)
	frame.Put(framed, payload, lenEcho)
	return framed
}

// decodeCheckpointPayload reads a checkpoint payload as strictly as
// DecodeRecord reads a record. The row count is bounded by the bytes left
// for all of the columns, so they are allocated before they are read.
func decodeCheckpointPayload(payload []byte) (*Checkpoint, error) {
	r := frame.NewReader(payload)
	if v := r.Byte(); v != checkpointVersion {
		return nil, fmt.Errorf("wal: checkpoint version %d (want %d)", v, checkpointVersion)
	}
	cp := &Checkpoint{Seq: r.Uvarint(), Name: r.Str()}
	cp.Attrs = make([]string, r.Count(1))
	for i := range cp.Attrs {
		cp.Attrs[i] = r.Str()
	}
	rows := r.Count(8 * len(cp.Attrs))
	cp.Cols = make([][]Value, len(cp.Attrs))
	for i := range cp.Cols {
		cp.Cols[i] = make([]Value, rows)
		r.Words(cp.Cols[i])
	}
	cp.Dead = make([]int, r.Count(1))
	for i := range cp.Dead {
		cp.Dead[i] = int(r.Uvarint())
	}
	cp.Tape = make([]Record, r.Count(1))
	for i := range cp.Tape {
		rec, err := DecodeRecord(r.Bytes(r.Count(1)))
		if err != nil {
			return nil, err
		}
		cp.Tape[i] = rec
	}
	if !r.Done() {
		return nil, ErrCorrupt
	}
	return cp, nil
}

// WriteCleanMarker records a clean shutdown: checkpoint seq and the exact
// segment size at close. On the next open, a marker matching the on-disk
// state means recovery can trust the shutdown was orderly (nothing was
// torn, nothing needs the "replayed" label).
func WriteCleanMarker(dir string, seq uint64, walSize int64) error {
	path := filepath.Join(dir, cleanFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%d %d\n", seq, walSize); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return syncDir(dir)
}

// TakeCleanMarker reads and removes the clean-shutdown marker. ok reports
// whether a parseable marker existed; the marker is removed either way so
// a subsequent crash cannot masquerade as clean.
func TakeCleanMarker(dir string) (seq uint64, walSize int64, ok bool) {
	path := filepath.Join(dir, cleanFile)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false
	}
	os.Remove(path)
	syncDir(dir)
	if _, err := fmt.Sscanf(string(b), "%d %d", &seq, &walSize); err != nil {
		return 0, 0, false
	}
	return seq, walSize, true
}

// syncDir fsyncs a directory so renames and unlinks inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
