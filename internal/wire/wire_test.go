package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/frame"
	"crackstore/internal/obs"
	"crackstore/internal/store"
)

func sampleRequests() []Request {
	return []Request{
		{ID: 1, Op: OpQuery, Query: engine.Query{
			Preds: []engine.AttrPred{
				{Attr: "A", Pred: store.Range(10, 20)},
				{Attr: "B", Pred: store.Open(-5, 5)},
			},
			Projs: []string{"B", "C"},
		}},
		{ID: 1<<63 + 7, Op: OpQueryRO, Query: engine.Query{
			Preds:       []engine.AttrPred{{Attr: "long attribute name", Pred: store.Point(-42)}},
			Disjunctive: true,
		}},
		{ID: 0, Op: OpQuery, Query: engine.Query{}},
		{ID: 3, Op: OpInsert, Vals: []store.Value{1, -2, 1 << 60}},
		{ID: 4, Op: OpInsert},
		{ID: 5, Op: OpDelete, Key: 123456},
		{ID: 6, Op: OpStats},
		{ID: 7, Op: OpPing},
		{ID: 8, Op: OpInsert, Token: 1<<64 - 3, Vals: []store.Value{9}},
		{ID: 9, Op: OpDelete, Token: 77, Key: 5},
		{ID: 10, Op: OpQuery, TTL: 250 * time.Millisecond, Query: engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Point(3)}},
		}},
		{ID: 11, Op: OpInsert, TTL: time.Second, Token: 42, Vals: []store.Value{1, 2}},
	}
}

func sampleResponses() []Response {
	return []Response{
		{ID: 1, Op: OpQuery, Status: StatusOK,
			Result: engine.Result{
				N: 2,
				Cols: map[string][]store.Value{
					"B": {7, 8},
					"C": {-1, 1 << 40},
				},
			},
			Cost: engine.Cost{Sel: 123 * time.Microsecond, TR: time.Millisecond},
		},
		{ID: 2, Op: OpQueryRO, Status: StatusOK,
			Result: engine.Result{N: 0, Cols: map[string][]store.Value{}}},
		{ID: 3, Op: OpQueryRO, Status: StatusRefused},
		{ID: 4, Op: OpQuery, Status: StatusErr, Err: "engine: no such attribute"},
		{ID: 5, Op: OpInsert, Status: StatusOK, Key: 99},
		{ID: 6, Op: OpDelete, Status: StatusOK},
		{ID: 7, Op: OpStats, Status: StatusOK, Stats: Stats{
			Queries: 1000, Errors: 2, Sheds: 17, Elapsed: 3 * time.Second, QPS: 12345.678,
			P50: time.Millisecond, P95: 2 * time.Millisecond,
			P99: 4 * time.Millisecond, Max: time.Second,
		}},
		{ID: 8, Op: OpPing, Status: StatusOK},
		{ID: 9, Op: OpQuery, Status: StatusOverloaded},
		{ID: 10, Op: OpInsert, Status: StatusOverloaded},
		{ID: 11, Op: OpPing, Status: StatusOverloaded},
	}
}

// normalizeResult maps the empty-but-non-nil forms the decoder produces onto
// the encoder's input so DeepEqual compares semantics, not nil-ness.
func normalizeReq(r Request) Request {
	if len(r.Query.Preds) == 0 {
		r.Query.Preds = nil
	}
	if len(r.Query.Projs) == 0 {
		r.Query.Projs = nil
	}
	if len(r.Vals) == 0 {
		r.Vals = nil
	}
	return r
}

func normalizeResp(r Response) Response {
	if len(r.Result.Cols) == 0 {
		r.Result.Cols = nil
	}
	for k, v := range r.Result.Cols {
		if len(v) == 0 {
			r.Result.Cols[k] = nil
		}
	}
	return r
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		frame := AppendRequest(nil, &req)
		payload, err := ReadFrame(bytes.NewReader(frame), 0, nil)
		if err != nil {
			t.Fatalf("%v: ReadFrame: %v", req.Op, err)
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("%v: DecodeRequest: %v", req.Op, err)
		}
		if !reflect.DeepEqual(normalizeReq(got), normalizeReq(req)) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		frame := AppendResponse(nil, &resp)
		payload, err := ReadFrame(bytes.NewReader(frame), 0, nil)
		if err != nil {
			t.Fatalf("%v: ReadFrame: %v", resp.Op, err)
		}
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("%v: DecodeResponse: %v", resp.Op, err)
		}
		if !reflect.DeepEqual(normalizeResp(got), normalizeResp(resp)) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", resp.Op, got, resp)
		}
	}
}

func TestResultEncodingIsCanonical(t *testing.T) {
	// Two results with identical content must encode identically even
	// though map iteration order differs between instances.
	mk := func() engine.Result {
		return engine.Result{N: 1, Cols: map[string][]store.Value{
			"z": {1}, "a": {2}, "m": {3}, "q": {4}, "b": {5},
		}}
	}
	a := AppendResponse(nil, &Response{ID: 1, Op: OpQuery, Result: mk()})
	for i := 0; i < 20; i++ {
		b := AppendResponse(nil, &Response{ID: 1, Op: OpQuery, Result: mk()})
		if !bytes.Equal(a, b) {
			t.Fatal("result encoding depends on map iteration order")
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	frame := AppendFrame(nil, make([]byte, 1024))
	if _, err := ReadFrame(bytes.NewReader(frame), 512, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// At exactly the cap the frame passes.
	if _, err := ReadFrame(bytes.NewReader(frame), 1024, nil); err != nil {
		t.Fatalf("frame at cap rejected: %v", err)
	}
}

// TestReadFrameReusesCallerBuffer: a stream of frames read the way a
// connection does — the last payload's [:0] passed back in — lands in one
// buffer, which grows only for a frame longer than any before it, and the
// messages decoded on the way keep their values after the buffer moved on.
func TestReadFrameReusesCallerBuffer(t *testing.T) {
	resps := sampleResponses()
	var stream []byte
	for i := range resps {
		stream = AppendResponse(stream, &resps[i])
	}
	r := bytes.NewReader(stream)
	var buf []byte
	got := make([]Response, len(resps))
	grown := 0
	for i := range resps {
		payload, err := ReadFrame(r, 0, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(payload) <= cap(buf) && &payload[0] != &buf[:1][0] {
			t.Fatalf("frame %d: %d bytes fit the %d-byte buffer and were read elsewhere", i, len(payload), cap(buf))
		}
		if len(payload) > cap(buf) {
			grown++
		}
		if got[i], err = DecodeResponse(payload); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = payload[:0]
	}
	if grown == 0 || grown == len(resps) {
		t.Fatalf("buffer grew %d times over %d frames: the sample exercises no reuse", grown, len(resps))
	}
	for i := range resps {
		if !reflect.DeepEqual(normalizeResp(got[i]), normalizeResp(resps[i])) {
			t.Errorf("frame %d changed after its buffer was reused:\n got %+v\nwant %+v", i, got[i], resps[i])
		}
	}
}

func TestReadFrameTruncation(t *testing.T) {
	req := sampleRequests()[0]
	frame := AppendRequest(nil, &req)
	// Clean EOF only at a frame boundary.
	if _, err := ReadFrame(bytes.NewReader(nil), 0, nil); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		_, err := ReadFrame(bytes.NewReader(frame[:cut]), 0, nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestDecodeTruncatedPayloads feeds every prefix of every valid payload to
// the decoders: all must error (a strict codec has no valid proper prefix,
// since trailing bytes are also rejected) and none may panic.
func TestDecodeTruncatedPayloads(t *testing.T) {
	for _, req := range sampleRequests() {
		frame := AppendRequest(nil, &req)
		payload := frame[FrameHeader:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeRequest(payload[:cut]); err == nil {
				t.Fatalf("%v: truncated payload (%d/%d bytes) decoded cleanly", req.Op, cut, len(payload))
			}
		}
	}
	for _, resp := range sampleResponses() {
		frame := AppendResponse(nil, &resp)
		payload := frame[FrameHeader:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeResponse(payload[:cut]); err == nil {
				t.Fatalf("%v: truncated payload (%d/%d bytes) decoded cleanly", resp.Op, cut, len(payload))
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	for _, req := range sampleRequests() {
		frame := AppendRequest(nil, &req)
		payload := append(append([]byte(nil), frame[FrameHeader:]...), 0xEE)
		if _, err := DecodeRequest(payload); err == nil {
			t.Fatalf("%v: trailing garbage accepted", req.Op)
		}
	}
}

// TestReadFrameChecksum: a flipped byte ANYWHERE in the frame — length,
// length echo, CRC, or payload — is rejected as ErrChecksum, and never by
// blocking on a mis-framed read. This is the property that turns silent
// corruption into a retryable connection error instead of a wrong answer
// or a stalled stream: a corrupted length field is caught by its masked
// echo before the reader decides how many bytes to wait for.
func TestReadFrameChecksum(t *testing.T) {
	req := sampleRequests()[0]
	frame := AppendRequest(nil, &req)
	for i := 0; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := ReadFrame(bytes.NewReader(bad), 0, nil); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: want ErrChecksum, got %v", i, err)
		}
	}
	// The pristine frame still passes.
	if _, err := ReadFrame(bytes.NewReader(frame), 0, nil); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

// TestDecodeResilienceFrames is the table-driven decode matrix for the
// resilience additions: Ping requests/responses, StatusOverloaded sheds,
// idempotency tokens, and TTL hints — valid forms decode to the exact
// struct, malformed forms (truncated token, oversized TTL, overloaded on
// an unknown op) draw ErrCorrupt.
func TestDecodeResilienceFrames(t *testing.T) {
	reqCases := []struct {
		name    string
		payload []byte
		want    Request
		wantErr bool
	}{
		{
			name:    "ping",
			payload: AppendRequest(nil, &Request{ID: 3, Op: OpPing})[FrameHeader:],
			want:    Request{ID: 3, Op: OpPing},
		},
		{
			name:    "insert with token and ttl",
			payload: AppendRequest(nil, &Request{ID: 4, Op: OpInsert, Token: 99, TTL: time.Millisecond, Vals: []store.Value{1}})[FrameHeader:],
			want:    Request{ID: 4, Op: OpInsert, Token: 99, TTL: time.Millisecond, Vals: []store.Value{1}},
		},
		{
			name:    "delete with token",
			payload: AppendRequest(nil, &Request{ID: 5, Op: OpDelete, Token: 1 << 62, Key: 9})[FrameHeader:],
			want:    Request{ID: 5, Op: OpDelete, Token: 1 << 62, Key: 9},
		},
		{
			name: "truncated token",
			// Op + ID + TTL, then a token uvarint with its continuation bit
			// set and nothing after it.
			payload: append(appendUvarint(appendUvarint([]byte{byte(OpInsert)}, 6), 0), 0x80),
			wantErr: true,
		},
		{
			name: "ttl overflows duration",
			payload: appendUvarint(appendUvarint([]byte{byte(OpPing)}, 7),
				uint64(1)<<63),
			wantErr: true,
		},
		{
			name:    "ping with trailing body",
			payload: append(AppendRequest(nil, &Request{ID: 8, Op: OpPing})[FrameHeader:], 0x01),
			wantErr: true,
		},
	}
	for _, tc := range reqCases {
		got, err := DecodeRequest(tc.payload)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: decoded cleanly, want error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(normalizeReq(got), normalizeReq(tc.want)) {
			t.Errorf("%s: got %+v want %+v", tc.name, got, tc.want)
		}
	}

	respCases := []struct {
		name    string
		payload []byte
		want    Response
		wantErr bool
	}{
		{
			name:    "pong",
			payload: AppendResponse(nil, &Response{ID: 2, Op: OpPing, Status: StatusOK})[FrameHeader:],
			want:    Response{ID: 2, Op: OpPing, Status: StatusOK},
		},
		{
			name:    "query shed",
			payload: AppendResponse(nil, &Response{ID: 3, Op: OpQuery, Status: StatusOverloaded})[FrameHeader:],
			want:    Response{ID: 3, Op: OpQuery, Status: StatusOverloaded},
		},
		{
			name:    "insert shed",
			payload: AppendResponse(nil, &Response{ID: 4, Op: OpInsert, Status: StatusOverloaded})[FrameHeader:],
			want:    Response{ID: 4, Op: OpInsert, Status: StatusOverloaded},
		},
		{
			name: "shed on unknown op",
			payload: append(appendUvarint([]byte{0x7F | respTag}, 5),
				byte(StatusOverloaded)),
			wantErr: true,
		},
		{
			name: "shed with trailing body",
			payload: append(AppendResponse(nil,
				&Response{ID: 6, Op: OpQuery, Status: StatusOverloaded})[FrameHeader:], 0xAB),
			wantErr: true,
		},
	}
	for _, tc := range respCases {
		got, err := DecodeResponse(tc.payload)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: decoded cleanly, want error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(normalizeResp(got), normalizeResp(tc.want)) {
			t.Errorf("%s: got %+v want %+v", tc.name, got, tc.want)
		}
	}
}

// TestDecodeAdversarialCounts pins the over-allocation guard: a tiny frame
// announcing a huge element count must be rejected, not trusted.
func TestDecodeAdversarialCounts(t *testing.T) {
	// OpInsert with a claimed 2^40 values in a tiny payload.
	payload := []byte{byte(OpInsert)}
	payload = appendUvarint(payload, 1)     // ID
	payload = appendUvarint(payload, 0)     // TTL
	payload = appendUvarint(payload, 7)     // token
	payload = appendUvarint(payload, 1<<40) // value count
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge insert count: want ErrCorrupt, got %v", err)
	}
	// Query with a claimed 2^32 predicates.
	payload = []byte{byte(OpQuery)}
	payload = appendUvarint(payload, 1)     // ID
	payload = appendUvarint(payload, 0)     // TTL
	payload = appendUvarint(payload, 1<<32) // predicate count
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge pred count: want ErrCorrupt, got %v", err)
	}
	// Response result with a huge column count.
	payload = []byte{byte(OpQuery) | respTag}
	payload = appendUvarint(payload, 1)
	payload = append(payload, byte(StatusOK))
	payload = appendUvarint(payload, 3)     // N
	payload = appendUvarint(payload, 1<<50) // columns
	if _, err := DecodeResponse(payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge column count: want ErrCorrupt, got %v", err)
	}
}

func TestDecodeRejectsDuplicateColumns(t *testing.T) {
	payload := []byte{byte(OpQuery) | respTag}
	payload = appendUvarint(payload, 9)
	payload = append(payload, byte(StatusOK))
	payload = appendUvarint(payload, 1) // N
	payload = appendUvarint(payload, 2) // columns
	for i := 0; i < 2; i++ {
		payload = frame.AppendString(payload, "B")
		payload = frame.AppendValues(payload, []store.Value{int64(i)})
	}
	payload = appendCost(payload, engine.Cost{})
	if _, err := DecodeResponse(payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate column: want ErrCorrupt, got %v", err)
	}
}

// TestDecodeRejectsRaggedResult: every result column holds exactly N
// values — a caller reads rows below N from each of them — so a column of
// any other length is corrupt. No columns at all is the count-only answer
// and stays legal.
func TestDecodeRejectsRaggedResult(t *testing.T) {
	result := func(cols ...[]store.Value) []byte {
		payload := appendUvarint([]byte{byte(OpQuery) | respTag}, 9)
		payload = append(payload, byte(StatusOK))
		payload = appendUvarint(payload, 3) // N
		payload = appendUvarint(payload, uint64(len(cols)))
		for i, col := range cols {
			payload = frame.AppendString(payload, string(rune('B'+i)))
			payload = frame.AppendValues(payload, col)
		}
		return appendCost(payload, engine.Cost{})
	}
	for _, cols := range [][][]store.Value{{{1}}, {{1, 2, 3}, {1, 2, 3, 4}}, {{}}} {
		if _, err := DecodeResponse(result(cols...)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("N=3 with column lengths %d: want ErrCorrupt, got %v", len(cols[len(cols)-1]), err)
		}
	}
	resp, err := DecodeResponse(result())
	if err != nil || resp.Result.N != 3 || len(resp.Result.Cols) != 0 {
		t.Fatalf("count-only answer: got %+v, %v; want N=3 and no columns", resp.Result, err)
	}
	resp, err = DecodeResponse(result([]store.Value{1, 2, 3}, []store.Value{4, 5, 6}))
	if err != nil || len(resp.Result.Cols["C"]) != 3 {
		t.Fatalf("two full columns: got %+v, %v", resp.Result, err)
	}
}

// TestRequestFormatUnchanged pins the request encoding byte for byte: one
// request per op, a traced one included. A decoder or encoder change that
// moves any byte fails here before it can strand a peer on the old format.
func TestRequestFormatUnchanged(t *testing.T) {
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{ID: 1, Op: OpQuery, TTL: 3 * time.Millisecond, Query: engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(-2, 300)}},
			Projs: []string{"B", "C"},
		}}, "0101b81701014103d8040100020142014300"},
		{Request{ID: 2, Op: OpQueryRO, Query: engine.Query{
			Preds:       []engine.AttrPred{{Attr: "x", Pred: store.Point(7)}, {Attr: "y", Pred: store.Open(1, 2)}},
			Disjunctive: true,
		}}, "0202000201780e0e01010179020400000001"},
		{Request{ID: 3, Op: OpInsert, Token: 1 << 40, Vals: []store.Value{-1, 0, 1 << 40}}, "03030080808080802003ffffffffffffffff00000000000000000000000000010000"},
		{Request{ID: 4, Op: OpDelete, Token: 9, Key: 300}, "04040009d804"},
		{Request{ID: 5, Op: OpStats}, "050500"},
		{Request{ID: 6, Op: OpPing, TTL: time.Second}, "0606c0843d"},
		{Request{ID: 7, Op: OpHello, Version: ProtoVersion}, "07070002"},
		{Request{ID: 8, Op: OpQuery, Trace: 1 << 33, Query: engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Point(0)}},
		}}, "4108008080808020010141000001010000"},
	} {
		if got := fmt.Sprintf("%x", AppendRequest(nil, &c.req)[FrameHeader:]); got != c.want {
			t.Errorf("%v (id %d): payload\n got %s\nwant %s", c.req.Op, c.req.ID, got, c.want)
		}
	}
}

// TestResponseFormatUnchanged is the response-side twin: one response per
// status, one StatusOK response per op, and a traced response with spans.
func TestResponseFormatUnchanged(t *testing.T) {
	for _, c := range []struct {
		resp Response
		want string
	}{
		{Response{ID: 1, Op: OpQuery, Status: StatusOK,
			Result: engine.Result{N: 2, Cols: map[string][]store.Value{"C": {-1, 1 << 40}, "B": {7, 8}}},
			Cost:   engine.Cost{Sel: 123 * time.Microsecond, TR: time.Millisecond}}, "810100020201420207000000000000000800000000000000014302ffffffffffffffff0000000000010000f0810f80897a"},
		{Response{ID: 2, Op: OpQueryRO, Status: StatusOK, Result: engine.Result{N: 5}}, "82020005000000"},
		{Response{ID: 3, Op: OpInsert, Status: StatusOK, Key: 300}, "830300d804"},
		{Response{ID: 4, Op: OpDelete, Status: StatusOK}, "840400"},
		{Response{ID: 5, Op: OpStats, Status: StatusOK, Stats: Stats{
			Queries: 1000, Errors: 2, Sheds: 17, Elapsed: 3 * time.Second, QPS: 12345.678,
			P50: time.Millisecond, P95: 2 * time.Millisecond, P99: 4 * time.Millisecond, Max: time.Second,
		}}, "850500e807021180f882ad16d8f2d0c5ec9a87e44080897a8092f40180a4e80380a8d6b907"},
		{Response{ID: 6, Op: OpPing, Status: StatusOK}, "860600"},
		{Response{ID: 7, Op: OpHello, Status: StatusOK, Version: ProtoVersion}, "87070002"},
		{Response{ID: 8, Op: OpQuery, Status: StatusErr, Err: "engine: no such attribute"}, "81080119656e67696e653a206e6f207375636820617474726962757465"},
		{Response{ID: 9, Op: OpQueryRO, Status: StatusRefused}, "820902"},
		{Response{ID: 10, Op: OpInsert, Status: StatusOverloaded}, "830a03"},
		{Response{ID: 11, Op: OpQuery, Status: StatusOK,
			Result: engine.Result{N: 1, Cols: map[string][]store.Value{"A": {4}}},
			Spans: []obs.Span{
				{Stage: obs.StageQueue, Dur: 5 * time.Microsecond},
				{Stage: obs.StageExecute, Start: 5 * time.Microsecond, Dur: 90 * time.Microsecond},
			}}, "c10b00010101410104000000000000000000020200882703882790bf05"},
	} {
		if got := fmt.Sprintf("%x", AppendResponse(nil, &c.resp)[FrameHeader:]); got != c.want {
			t.Errorf("%v/%d (id %d): payload\n got %s\nwant %s", c.resp.Op, c.resp.Status, c.resp.ID, got, c.want)
		}
	}
}
