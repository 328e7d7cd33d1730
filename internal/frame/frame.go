// Package frame implements what the wire protocol (internal/wire) and the
// write-ahead log (internal/wal) share: the self-validating frame header,
// and Reader, the strict decoder of the payloads it frames (see Payloads).
//
//	+----------------+------------------+----------------+---------------------+
//	| length uint32  | length^domain    | crc32 uint32   | payload             |
//	| big-endian     | big-endian       | IEEE, payload  | (length bytes)      |
//	+----------------+------------------+----------------+---------------------+
//
// The payload length travels twice — once plain, once XOR-masked — so a
// reader validates it before trusting it: a corrupted length is the one
// fault a payload CRC cannot catch, because the reader would wait for (or
// index past) bytes that were never written instead of reaching the
// checksum. The mask also keeps an all-zero header, the common shape of a
// torn write or a dead link, from ever validating. The CRC turns silent
// byte corruption into a detected error instead of a wrong answer or a
// wrong replay.
//
// Reading is two steps because the size cap between them belongs to the
// caller (a frame limit on a socket, a record limit in a log, the file size
// of a checkpoint): Len validates the length, the caller bounds it and
// obtains that many payload bytes, SumOK validates them.
//
// # Payloads
//
// Both formats also share their payload primitives: uvarints and varints
// (encoding/binary), strings as a uvarint length and the bytes, bools as
// one byte 0 or 1, and value slices as a uvarint count of fixed 8-byte
// little-endian words. The appenders here write the last three; Reader is
// the one strict decoder for all of them. Its first failure — a read past
// the end, a bool that is neither 0 nor 1, a caller's Fail — latches: every
// later read returns its zero value and consumes nothing, so a decoder
// reads a whole payload straight through and checks once, with Done, which
// also rejects trailing bytes.
//
// Count is the only source of a decode-side allocation size. It fails a
// count above len(remaining)/minSize, so an element count announced by a
// payload can never ask for more elements than the payload's own bytes
// could encode at minSize bytes each: allocating what Count returns costs
// at most a constant factor of the input's size, whatever the input says
// (crackvet's wirebounds check holds internal/wire, internal/wal and this
// package to it).
package frame

import (
	"encoding/binary"
	"hash/crc32"
)

// HeaderSize is the byte size of the frame header.
const HeaderSize = 12

// Put fills hdr[:HeaderSize] with the header framing payload. domain is
// the format's mask for the length echo — each format owns a distinct
// constant, so a frame of one never validates as a frame of another.
func Put(hdr, payload []byte, domain uint32) {
	n := uint32(len(payload))
	binary.BigEndian.PutUint32(hdr, n)
	binary.BigEndian.PutUint32(hdr[4:], n^domain)
	binary.BigEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(payload))
}

// Len returns the payload length hdr[:HeaderSize] announces. ok is false
// when the length disagrees with its masked echo; n must not be used then.
func Len(hdr []byte, domain uint32) (n uint32, ok bool) {
	n = binary.BigEndian.Uint32(hdr)
	return n, binary.BigEndian.Uint32(hdr[4:]) == n^domain
}

// SumOK reports whether payload matches the checksum in hdr[:HeaderSize].
func SumOK(hdr, payload []byte) bool {
	return crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(hdr[8:])
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBool appends b as one byte, 1 or 0.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendValues appends vals as a uvarint count and one fixed 8-byte
// little-endian word per value, the encoding Reader.Values reads back.
// Fixed words en/decode an order of magnitude faster than per-value
// varints, and value slices (inserted tuples, result columns, logged
// batches) are the bulk of both formats.
func AppendValues(dst []byte, vals []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// Reader is a strict decode cursor over one payload (see Payloads in the
// package comment). The zero Reader reads an empty payload.
type Reader struct {
	b      []byte // the bytes not yet read
	failed bool
}

// NewReader returns a Reader over payload. The strings it returns are
// copies; the slices of Bytes alias payload.
func NewReader(payload []byte) Reader { return Reader{b: payload} }

// Fail latches a failure: the decoder found a value its format forbids.
func (r *Reader) Fail() {
	r.failed = true
	r.b = nil
}

// Done reports whether every read succeeded and the payload was read to
// its last byte.
func (r *Reader) Done() bool { return !r.failed && len(r.b) == 0 }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail()
	return false
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a uvarint element count and fails it unless the remaining
// bytes could hold that many elements of at least minSize bytes each
// (minSize below 1 counts as 1). The result is therefore at most
// len(remaining)/minSize: safe to allocate from.
func (r *Reader) Count(minSize int) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)/max(minSize, 1)) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Bytes reads the next n bytes, aliasing the payload.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.Fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.Bytes(r.Count(1))) }

// Words fills dst with len(dst) fixed 8-byte little-endian words.
func (r *Reader) Words(dst []int64) {
	if len(dst) > len(r.b)/8 {
		r.Fail()
		return
	}
	b := r.b
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	r.b = b
}

// Values reads a value slice written by AppendValues. A count of zero
// reads as an empty, non-nil slice.
func (r *Reader) Values() []int64 {
	vals := make([]int64, r.Count(8))
	r.Words(vals)
	return vals
}
