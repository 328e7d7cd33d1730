package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"crackstore/internal/frame"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// RecType identifies one write-ahead-log record kind.
type RecType byte

// Record types. A switch over RecType must either handle every constant or
// carry a default arm (doc.go Invariants, "enum dispatch"), so adding a
// record kind cannot silently fall through a replay loop.
const (
	// RecInsert is an acked insert batch: Width values per tuple, in
	// relation attribute order, replayed as sequential appends (keys are
	// assigned by position, so log order reproduces the original keys).
	RecInsert RecType = 1
	// RecDelete is an acked delete batch of tuple keys.
	RecDelete RecType = 2
	// RecCrack is one entry of the crack tape: the predicate/projection
	// shape of a query that physically reorganized the store. Replaying the
	// tape re-runs those queries against the recovered base data, which
	// re-cracks the same pieces — the reorganization investment survives
	// the restart. Crack records are redo-only optimization: losing an
	// unsynced tail of the tape costs warmth, never correctness.
	RecCrack RecType = 3
	// RecCheckpoint marks the head of a fresh log segment with the
	// checkpoint sequence number that opened it, so recovery can detect a
	// segment that does not belong to the checkpoint next to it.
	RecCheckpoint RecType = 4
)

func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecCrack:
		return "crack"
	case RecCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("rectype(%d)", byte(t))
}

// PredRec is one attribute predicate of a crack-tape record.
type PredRec struct {
	Attr string
	Pred store.Pred
}

// Record is one decoded WAL record. Only the fields of its Type are
// meaningful.
type Record struct {
	Type RecType

	// RecInsert: Width values per tuple, len(Vals)/Width tuples.
	Width int
	Vals  []Value

	// RecDelete: tuple keys.
	Keys []int

	// RecCrack: the reorganizing query's shape.
	Preds       []PredRec
	Projs       []string
	Disjunctive bool

	// RecCheckpoint: the checkpoint sequence that opened this segment.
	Seq uint64
}

// Framing. Records and checkpoints carry the self-validating header of
// internal/frame, with lenEcho as this format's domain constant (distinct
// from the wire protocol's, so neither accepts the other's frames): the
// payload length travels twice — once plain, once XOR-masked — so a reader
// validates the length before trusting it, and a CRC-32 of the payload
// turns silent byte corruption into a detectable torn tail instead of a
// wrong replay. An all-zero header (common torn-write shape) never
// validates because of the mask.
const (
	frameHeader = frame.HeaderSize
	lenEcho     = 0x5AC3A55A

	// MaxRecord caps a single record frame. A length prefix above it is
	// treated as a torn tail, so a corrupt header cannot make recovery
	// allocate gigabytes.
	MaxRecord = 16 << 20
)

// Codec errors.
var (
	// ErrCorrupt reports a CRC-valid payload that does not decode cleanly:
	// not a torn tail (the checksum passed) but a version skew or a bug,
	// which recovery must refuse rather than guess at.
	ErrCorrupt = errors.New("wal: corrupt record payload")
)

// AppendPayload appends the frameless encoding of rec to dst.
func AppendPayload(dst []byte, rec Record) []byte {
	dst = append(dst, byte(rec.Type))
	switch rec.Type {
	case RecInsert:
		dst = binary.AppendUvarint(dst, uint64(rec.Width))
		dst = frame.AppendValues(dst, rec.Vals)
	case RecDelete:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Keys)))
		for _, k := range rec.Keys {
			dst = binary.AppendUvarint(dst, uint64(k))
		}
	case RecCrack:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Preds)))
		for _, p := range rec.Preds {
			dst = frame.AppendString(dst, p.Attr)
			dst = binary.AppendVarint(dst, p.Pred.Lo)
			dst = binary.AppendVarint(dst, p.Pred.Hi)
			var flags byte
			if p.Pred.LoIncl {
				flags |= 1
			}
			if p.Pred.HiIncl {
				flags |= 2
			}
			dst = append(dst, flags)
		}
		dst = binary.AppendUvarint(dst, uint64(len(rec.Projs)))
		for _, s := range rec.Projs {
			dst = frame.AppendString(dst, s)
		}
		dst = frame.AppendBool(dst, rec.Disjunctive)
	case RecCheckpoint:
		dst = binary.AppendUvarint(dst, rec.Seq)
	default:
		panic(fmt.Sprintf("wal: encoding unknown record type %d", rec.Type))
	}
	return dst
}

// AppendRecord appends the framed encoding of rec to dst.
func AppendRecord(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = AppendPayload(dst, rec)
	frame.Put(dst[start:], dst[start+frameHeader:], lenEcho)
	return dst
}

// DecodeRecord decodes a frameless record payload. Decoding is strict and
// reads through one frame.Reader: every read is bounds-checked, a value the
// format forbids (a zero width, a batch that is not whole tuples, unknown
// predicate flags) or trailing bytes make ErrCorrupt, and every slice is
// sized by frame.Reader.Count, so an adversarial payload can neither panic
// the decoder nor make it allocate more than a constant factor of its own
// size (FuzzRecordCodec pins both properties).
func DecodeRecord(payload []byte) (Record, error) {
	r := frame.NewReader(payload)
	rec := Record{Type: RecType(r.Byte())}
	switch rec.Type {
	case RecInsert:
		rec.Width, rec.Vals = int(r.Uvarint()), r.Values()
		if rec.Width <= 0 || len(rec.Vals)%rec.Width != 0 {
			return Record{}, ErrCorrupt
		}
	case RecDelete:
		rec.Keys = make([]int, r.Count(1))
		for i := range rec.Keys {
			rec.Keys[i] = int(r.Uvarint())
		}
	case RecCrack:
		rec.Preds = make([]PredRec, r.Count(4)) // attr len, lo, hi, flags
		for i := range rec.Preds {
			attr, lo, hi, flags := r.Str(), r.Varint(), r.Varint(), r.Byte()
			if flags&^byte(3) != 0 {
				r.Fail()
			}
			rec.Preds[i] = PredRec{Attr: attr, Pred: store.Pred{
				Lo: lo, Hi: hi, LoIncl: flags&1 != 0, HiIncl: flags&2 != 0}}
		}
		rec.Projs = make([]string, r.Count(1))
		for i := range rec.Projs {
			rec.Projs[i] = r.Str()
		}
		rec.Disjunctive = r.Bool()
	case RecCheckpoint:
		rec.Seq = r.Uvarint()
	default:
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, byte(rec.Type))
	}
	if !r.Done() {
		return Record{}, ErrCorrupt
	}
	return rec, nil
}

// Scan iterates the complete records of b, calling fn for each with the
// record's starting offset. It returns the length of the longest valid
// record prefix: a torn or corrupted tail — truncated header, length echo
// mismatch, missing payload bytes, checksum failure — ends the scan there
// without error, which is exactly the crash-recovery contract (nothing
// past a torn record can be trusted). A CRC-valid record that fails strict
// decoding is a hard error, not a torn tail. fn's error aborts the scan.
func Scan(b []byte, fn func(off int64, rec Record) error) (int64, error) {
	off := 0
	for {
		if len(b)-off < frameHeader {
			return int64(off), nil
		}
		hdr := b[off : off+frameHeader]
		n, ok := frame.Len(hdr, lenEcho)
		if !ok || n > MaxRecord || off+frameHeader+int(n) > len(b) {
			return int64(off), nil
		}
		payload := b[off+frameHeader : off+frameHeader+int(n)]
		if !frame.SumOK(hdr, payload) {
			return int64(off), nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return int64(off), fmt.Errorf("wal: record at offset %d: %w", off, err)
		}
		if err := fn(int64(off), rec); err != nil {
			return int64(off), err
		}
		off += frameHeader + int(n)
	}
}
