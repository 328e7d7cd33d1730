// Package frame implements the self-validating frame header shared by the
// wire protocol (internal/wire) and the write-ahead log (internal/wal):
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
