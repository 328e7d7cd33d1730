package wire

import (
	"bytes"
	"testing"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/store"
)

// scribble overwrites a payload the way the next ReadFrame into the same
// buffer would.
func scribble(payload []byte) {
	for i := range payload {
		payload[i] ^= 0xA5
	}
}

// FuzzDecodeRequest pins the decoder's safety contract on arbitrary bytes:
// it never panics, and when it does accept a payload, re-encoding the
// decoded request yields a payload the decoder accepts again with an
// identical re-encoding (a canonical-form fixed point). The decoded request
// shares no memory with the payload: a connection reads every frame into one
// buffer, so overwriting the payload must leave the request as it was.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []Request{
		{ID: 1, Op: OpQuery, Query: engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 9)}},
			Projs: []string{"B"},
		}},
		{ID: 2, Op: OpQueryRO, Query: engine.Query{
			Preds:       []engine.AttrPred{{Attr: "x", Pred: store.Point(7)}},
			Disjunctive: true,
		}},
		{ID: 3, Op: OpInsert, Vals: []store.Value{-1, 0, 1 << 40}},
		{ID: 4, Op: OpDelete, Key: 77},
		{ID: 5, Op: OpStats},
		{ID: 6, Op: OpPing},
		{ID: 7, Op: OpInsert, Token: 1<<64 - 1, TTL: 1 << 20, Vals: []store.Value{5}},
		{ID: 8, Op: OpDelete, Token: 300, Key: 2},
		{ID: 9, Op: OpQuery, Trace: 77, Query: engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Open(2, 5)}, {Attr: "C", Pred: store.Point(1)}},
			Projs: []string{"B", "C"},
		}},
	} {
		f.Add(AppendRequest(nil, &req)[FrameHeader:])
	}
	// Token-bearing frames cut mid-token: the uvarint continuation bit is set
	// with no following byte, which the decoder must reject, never over-read.
	tok := AppendRequest(nil, &Request{ID: 9, Op: OpInsert, Token: 1 << 42, Vals: []store.Value{1}})[FrameHeader:]
	f.Add(tok[:len(tok)-10])
	f.Add(append(appendUvarint(appendUvarint([]byte{byte(OpDelete)}, 9), 0), 0x80))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		payload = bytes.Clone(payload) // the fuzzer's input is not ours to overwrite
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		re := AppendRequest(nil, &req)[FrameHeader:]
		scribble(payload)
		if after := AppendRequest(nil, &req)[FrameHeader:]; !bytes.Equal(re, after) {
			t.Fatalf("decoded request aliases its payload:\n %x\n %x", re, after)
		}
		req2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		re2 := AppendRequest(nil, &req2)[FrameHeader:]
		if !bytes.Equal(re, re2) {
			t.Fatalf("request re-encoding is not a fixed point:\n %x\n %x", re, re2)
		}
	})
}

// FuzzDecodeResponse is the response-side twin of FuzzDecodeRequest, the
// no-aliasing property included.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range []Response{
		{ID: 1, Op: OpQuery, Status: StatusOK,
			Result: engine.Result{N: 2, Cols: map[string][]store.Value{"B": {3, 4}}},
			Cost:   engine.Cost{Sel: 10, TR: 20}},
		{ID: 2, Op: OpQueryRO, Status: StatusRefused},
		{ID: 3, Op: OpInsert, Status: StatusOK, Key: 5},
		{ID: 4, Op: OpDelete, Status: StatusOK},
		{ID: 5, Op: OpStats, Status: StatusOK, Stats: Stats{Queries: 10, QPS: 1.5}},
		{ID: 6, Op: OpQuery, Status: StatusErr, Err: "boom"},
		{ID: 7, Op: OpPing, Status: StatusOK},
		{ID: 8, Op: OpQueryRO, Status: StatusOverloaded},
		{ID: 9, Op: OpQuery, Status: StatusOK,
			Result: engine.Result{N: 1, Cols: map[string][]store.Value{"A": {1}, "B": {2}}},
			Spans:  []obs.Span{{Stage: obs.StageQueue, Dur: 5}, {Stage: obs.StageExecute, Start: 5, Dur: 9}}},
	} {
		f.Add(AppendResponse(nil, &resp)[FrameHeader:])
	}
	f.Add([]byte{respTag})
	f.Fuzz(func(t *testing.T, payload []byte) {
		payload = bytes.Clone(payload)
		resp, err := DecodeResponse(payload)
		if err != nil {
			return
		}
		re := AppendResponse(nil, &resp)[FrameHeader:]
		scribble(payload)
		if after := AppendResponse(nil, &resp)[FrameHeader:]; !bytes.Equal(re, after) {
			t.Fatalf("decoded response aliases its payload:\n %x\n %x", re, after)
		}
		resp2, err := DecodeResponse(re)
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		re2 := AppendResponse(nil, &resp2)[FrameHeader:]
		if !bytes.Equal(re, re2) {
			t.Fatalf("response re-encoding is not a fixed point:\n %x\n %x", re, re2)
		}
	})
}
