package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"crackstore/internal/frame"
	"crackstore/internal/store"
)

func sampleRecords() []Record {
	return []Record{
		{Type: RecInsert, Width: 3, Vals: []Value{1, 2, 3, 40, 50, 60}},
		{Type: RecInsert, Width: 1, Vals: []Value{-9}},
		{Type: RecDelete, Keys: []int{0, 7, 123456}},
		{Type: RecCrack, Preds: []PredRec{
			{Attr: "A", Pred: store.Pred{Lo: -5, Hi: 100, LoIncl: true}},
			{Attr: "B", Pred: store.Pred{Lo: 3, Hi: 3, LoIncl: true, HiIncl: true}},
		}, Projs: []string{"A", "C"}, Disjunctive: true},
		{Type: RecCrack, Preds: []PredRec{{Attr: "A", Pred: store.Range(10, 20)}}},
		{Type: RecCheckpoint, Seq: 42},
	}
}

// recEqual compares records ignoring nil-vs-empty slice representation.
func recEqual(a, b Record) bool {
	norm := func(r Record) Record {
		if len(r.Vals) == 0 {
			r.Vals = nil
		}
		if len(r.Keys) == 0 {
			r.Keys = nil
		}
		if len(r.Preds) == 0 {
			r.Preds = nil
		}
		if len(r.Projs) == 0 {
			r.Projs = nil
		}
		return r
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		payload := AppendPayload(nil, rec)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", rec.Type, err)
		}
		if !recEqual(got, rec) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", rec.Type, got, rec)
		}
		if _, err := DecodeRecord(append(payload, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v: trailing byte: err=%v, want ErrCorrupt", rec.Type, err)
		}
	}
}

func TestScanTornTailEveryByte(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	var bounds []int // buffer offset after each record
	for _, rec := range recs {
		buf = AppendRecord(buf, rec)
		bounds = append(bounds, len(buf))
	}
	for k := 0; k <= len(buf); k++ {
		wantValid := 0
		wantRecs := 0
		for i, b := range bounds {
			if b <= k {
				wantValid = b
				wantRecs = i + 1
			}
		}
		var got []Record
		valid, err := Scan(buf[:k], func(_ int64, rec Record) error {
			got = append(got, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("truncate %d: scan error: %v", k, err)
		}
		if valid != int64(wantValid) || len(got) != wantRecs {
			t.Fatalf("truncate %d: got valid=%d recs=%d, want valid=%d recs=%d",
				k, valid, len(got), wantValid, wantRecs)
		}
		for i, rec := range got {
			if !recEqual(rec, recs[i]) {
				t.Fatalf("truncate %d: record %d mismatch", k, i)
			}
		}
	}
}

func TestScanRejectsCorruptPayload(t *testing.T) {
	// Flip a payload byte and refresh nothing: the CRC must catch it and
	// Scan must stop there (torn tail, not an error).
	buf := AppendRecord(nil, Record{Type: RecDelete, Keys: []int{1, 2}})
	buf = AppendRecord(buf, Record{Type: RecCheckpoint, Seq: 9})
	buf[frameHeader] ^= 0xFF
	n := 0
	valid, err := Scan(buf, func(_ int64, _ Record) error { n++; return nil })
	if err != nil || valid != 0 || n != 0 {
		t.Fatalf("corrupt first record: valid=%d n=%d err=%v, want 0,0,nil", valid, n, err)
	}
}

func TestScanZeroFill(t *testing.T) {
	// An all-zero region (preallocated/torn file tail) must never parse as
	// a record: the masked length echo cannot be satisfied by zeros.
	valid, err := Scan(make([]byte, 4096), func(_ int64, _ Record) error { return nil })
	if err != nil || valid != 0 {
		t.Fatalf("zero fill: valid=%d err=%v, want 0,nil", valid, err)
	}
}

func TestDecodeRejectsOversizeCounts(t *testing.T) {
	// A delete record claiming 2^40 keys in a 3-byte payload must fail
	// cleanly (and, per the fuzz no-large-alloc property, without
	// allocating for the claimed count).
	payload := []byte{byte(RecDelete), 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := DecodeRecord(payload); err == nil {
		t.Fatal("oversize key count decoded without error")
	}
}

// overflowInsert is a CRC-valid insert payload whose value count,
// 1,893,715,657,364,446,006, is a multiple of its width 89: eight bytes a
// value times that count wraps negative, which once slipped past the
// decoder's size check into a make that panicked.
var overflowInsert = []byte{0x01, 0x59, 0xb6, 0xb6, 0xb6, 0xb6, 0xb6, 0x8b, 0xf5, 0xa3, 0x1a}

// TestDecodeRejectsOverflowingCount: the overflowing insert is corrupt,
// both to DecodeRecord and to a Scan over its frame, and neither panics.
func TestDecodeRejectsOverflowingCount(t *testing.T) {
	if _, err := DecodeRecord(overflowInsert); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeRecord: err=%v, want ErrCorrupt", err)
	}
	framed := make([]byte, frameHeader, frameHeader+len(overflowInsert))
	framed = append(framed, overflowInsert...)
	frame.Put(framed, framed[frameHeader:], lenEcho)
	valid, err := Scan(framed, func(int64, Record) error {
		t.Fatal("Scan delivered the overflowing record")
		return nil
	})
	if valid != 0 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan: valid=%d err=%v, want 0 valid bytes and ErrCorrupt", valid, err)
	}
}

// FuzzRecordCodec pins the codec's safety contract on arbitrary bytes:
// DecodeRecord never panics, and when it accepts a payload, re-encoding
// the decoded record is a fixed point (decode∘encode is the identity on
// decoder outputs, and encode∘decode is the identity on encoder outputs —
// arbitrary accepted inputs may differ from their re-encoding only by
// non-canonical varints, which strictness mostly forbids anyway).
func FuzzRecordCodec(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(AppendPayload(nil, rec))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(RecInsert)})
	f.Add(overflowInsert)
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		enc := AppendPayload(nil, rec)
		rec2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !recEqual(rec, rec2) {
			t.Fatalf("decode/encode/decode not stable:\n first %+v\nsecond %+v", rec, rec2)
		}
		if enc2 := AppendPayload(nil, rec2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoder not deterministic")
		}
	})
}

// FuzzScanTornTail pins torn-tail truncation: for a log built from fuzzed
// record parameters, truncating at every byte boundary recovers exactly
// the records whose frames are complete — never fewer, never a phantom.
func FuzzScanTornTail(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(-77), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, v int64, nrec, width uint8) {
		n := int(nrec%6) + 1
		w := int(width%4) + 1
		var buf []byte
		var bounds []int
		for i := 0; i < n; i++ {
			var rec Record
			switch i % 3 {
			case 0:
				vals := make([]Value, w)
				for j := range vals {
					vals[j] = v + Value(i*j)
				}
				rec = Record{Type: RecInsert, Width: w, Vals: vals}
			case 1:
				rec = Record{Type: RecDelete, Keys: []int{i, i * 7}}
			default:
				rec = Record{Type: RecCrack, Preds: []PredRec{{Attr: "A", Pred: store.Range(v, v+Value(i))}}}
			}
			buf = AppendRecord(buf, rec)
			bounds = append(bounds, len(buf))
		}
		for k := 0; k <= len(buf); k++ {
			want := 0
			for _, b := range bounds {
				if b <= k {
					want = b
				}
			}
			valid, err := Scan(buf[:k], func(int64, Record) error { return nil })
			if err != nil {
				t.Fatalf("truncate %d: %v", k, err)
			}
			if valid != int64(want) {
				t.Fatalf("truncate %d: valid=%d want %d", k, valid, want)
			}
		}
	})
}

// TestRecordFormatUnchanged pins the record payload encoding byte for byte,
// one record per type: a log written before a codec change must replay
// after it.
func TestRecordFormatUnchanged(t *testing.T) {
	for _, c := range []struct {
		rec  Record
		want string
	}{
		{Record{Type: RecInsert, Width: 2, Vals: []Value{-1, 1 << 40}}, "010202ffffffffffffffff0000000000010000"},
		{Record{Type: RecDelete, Keys: []int{0, 300}}, "020200ac02"},
		{Record{Type: RecCrack, Preds: []PredRec{
			{Attr: "A", Pred: store.Pred{Lo: -5, Hi: 100, LoIncl: true}},
			{Attr: "B", Pred: store.Pred{Lo: 3, Hi: 3, LoIncl: true, HiIncl: true}},
		}, Projs: []string{"C"}, Disjunctive: true}, "0302014109c80101014206060301014301"},
		{Record{Type: RecCheckpoint, Seq: 300}, "04ac02"},
	} {
		if got := fmt.Sprintf("%x", AppendPayload(nil, c.rec)); got != c.want {
			t.Errorf("%v: payload\n got %s\nwant %s", c.rec.Type, got, c.want)
		}
	}
}
