// Package wire implements the remote-serving protocol: a compact
// length-prefixed binary encoding of the engine query/update API, so a
// crackstore engine can be served over a TCP connection (internal/netserve)
// and driven by a multiplexing client (crackstore/client).
//
// # Framing
//
// Every message travels as one frame under the self-validating header of
// internal/frame (payload length, the length again masked with lenEcho,
// CRC-32 of the payload), which is what lets a reader validate the length
// before it decides how many bytes to wait for. Readers also enforce a
// maximum frame size (MaxFrame / DefaultMaxFrame): a peer announcing a
// larger frame is a protocol error, detected before any allocation, so a
// corrupt or adversarial length prefix cannot make the receiver allocate
// gigabytes. The checksum matters here because a value column is raw
// 8-byte words: without it a flipped bit would decode cleanly into a
// different value. Corruption is not recoverable in-stream (the frame
// boundary itself is untrusted); the reader reports ErrChecksum and the
// connection ends, which the client treats like any other connection
// failure and retries idempotently elsewhere.
//
// # Payloads
//
// A payload is a message type byte, a request ID uvarint, and a
// type-dependent body. Scalar integers are varints (encoding/binary);
// strings are uvarint-counted; value slices (insert tuples, result
// columns) are uvarint-counted fixed 8-byte little-endian words, which
// en/decode an order of magnitude faster than varints on large results.
// The request ID pairs a response with its request: responses may come
// back in any order, which is what lets a single connection pipeline many
// in-flight requests.
//
// Requests: OpQuery and OpQueryRO carry a Query (predicates, projections,
// disjunctive flag); OpInsert carries the tuple values; OpDelete the tuple
// key; OpStats and OpPing are empty. Every request also carries a TTL
// uvarint (microseconds; 0 = none) — a deadline hint that lets the server
// skip executing requests whose caller has already given up — and the
// write requests (OpInsert, OpDelete) carry an idempotency token: the
// server deduplicates retried writes by token and replays the recorded
// response, so a client may safely resend a write whose response was lost.
//
// Responses: StatusOK carries the op-specific body (result+cost, inserted
// key, nothing, serving stats); StatusErr carries an error string;
// StatusRefused is the QueryRO "would reorganize" answer; StatusOverloaded
// is the in-band shed answer — the server declined cheaply under overload
// and the client should back off and retry, with no work done and the
// connection intact.
//
// Decoding is strict and reads through the one payload decoder of
// internal/frame, frame.Reader, which the WAL shares: every read is
// bounds-checked, trailing garbage is an error, a result column must hold
// exactly N values, and every slice or map is sized by frame.Reader.Count,
// which caps an announced count by the bytes actually remaining. A
// truncated or adversarial frame can neither panic the decoder nor make it
// allocate more than a constant factor of the frame (FuzzDecodeRequest and
// FuzzDecodeResponse pin both properties).
//
// # Tracing extension
//
// A traced request sets traceFlag (0x40) on its op byte and carries a
// trace ID uvarint after the TTL; the matching response sets the same
// flag and appends a per-stage span list (queue, execute, crack) after
// its body. The flag bit is free — request ops are small positive bytes
// and responses use the 0x80 tag — so untraced traffic is byte-identical
// to the previous protocol version: an old client never sets the flag
// and a new server answers it exactly as before. A new client discovers
// whether its server understands the extension with OpHello (a
// protocol-version exchange): an old server answers Hello with its usual
// in-band unknown-op error and an intact connection, which the client
// reads as "no tracing", and simply never sets the flag.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/frame"
	"crackstore/internal/obs"
	"crackstore/internal/store"
)

// ProtoVersion is the protocol version this package speaks, exchanged by
// OpHello. Version 2 added the tracing extension (traceFlag + span
// lists); version 1 is the implied pre-Hello protocol.
const ProtoVersion = 2

// FrameHeader is the byte size of the frame header (see internal/frame).
const FrameHeader = frame.HeaderSize

// lenEcho is the wire format's frame domain: it masks the redundant length
// copy so an all-zero header (a common failure shape) never validates, and
// differs from the WAL's so neither accepts the other's frames.
const lenEcho = 0x5AA5C33C

// DefaultMaxFrame is the frame-size cap used when a reader does not choose
// its own: large enough for result sets of a few million tuples, small
// enough that a corrupt length prefix cannot exhaust memory.
const DefaultMaxFrame = 64 << 20

// Op identifies a request kind (and echoes in its response).
type Op byte

// Request operations.
const (
	OpQuery   Op = 1 // full query: may reorganize (crack, merge, materialize)
	OpQueryRO Op = 2 // reorganization-free query; refused if it would reorganize
	OpInsert  Op = 3 // append one tuple
	OpDelete  Op = 4 // delete by tuple key
	OpStats   Op = 5 // serving-layer statistics snapshot
	OpPing    Op = 6 // health check: answered immediately, bypassing admission
	// OpHello exchanges protocol versions. New clients send it once per
	// connection before relying on any protocol extension; servers answer
	// with their own ProtoVersion. Servers predating OpHello answer with
	// their regular in-band unknown-op error (connection intact), which a
	// client must treat as version 1.
	OpHello Op = 7
)

func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpQueryRO:
		return "query-ro"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpStats:
		return "stats"
	case OpPing:
		return "ping"
	case OpHello:
		return "hello"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Status is the response disposition.
type Status byte

// Response statuses.
const (
	StatusOK      Status = 0 // body is the op-specific success payload
	StatusErr     Status = 1 // body is an error string
	StatusRefused Status = 2 // OpQueryRO only: executing would reorganize
	// StatusOverloaded is the in-band shed response: the server's admission
	// watermark (or global in-flight cap) was exceeded, the request did not
	// execute, and the connection remains healthy. Clients back off and
	// retry; shedding never closes the connection.
	StatusOverloaded Status = 3
)

// respTag marks a payload as a response (high bit set over the request op).
const respTag byte = 0x80

// traceFlag marks a traced payload: the request carries a trace ID
// uvarint after its TTL, the response carries a span list after its
// body. Free bit: ops are small positive bytes, responses use respTag.
const traceFlag byte = 0x40

// Request is one decoded client request.
type Request struct {
	ID uint64
	Op Op

	// TTL is the caller's remaining deadline budget when the request was
	// sent (microsecond resolution on the wire; 0 = no deadline). The
	// server treats arrival+TTL as the request's deadline and skips
	// executing requests that expire while queued — the caller has already
	// given up, so the work would be wasted and the worker slot occupied
	// for nothing.
	TTL time.Duration

	// Token is the idempotency token of a write request (OpInsert,
	// OpDelete; 0 = none). The server keeps a bounded window of recently
	// executed tokens and answers a repeated token by replaying the
	// recorded response instead of applying the write again — what makes a
	// write safe to retry after its frame reached the wire.
	Token uint64

	// Trace is the nonzero trace ID of a sampled query (0 = untraced).
	// Traced requests set traceFlag on the wire and ask the server to
	// time its stages and return them as response spans.
	Trace uint64

	// Version is the client's protocol version (OpHello only).
	Version uint64

	// Query body (OpQuery, OpQueryRO).
	Query engine.Query
	// Vals is the tuple of an OpInsert, in relation attribute order.
	Vals []store.Value
	// Key is the tuple key of an OpDelete.
	Key int
}

// Response is one decoded server response.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	// Err is the error string of a StatusErr response.
	Err string

	// Result and Cost answer OpQuery / OpQueryRO.
	Result engine.Result
	Cost   engine.Cost
	// Key answers OpInsert.
	Key int
	// Stats answers OpStats.
	Stats Stats
	// Version answers OpHello: the server's protocol version.
	Version uint64

	// Spans are the server-side stage timings of a traced request
	// (StageQueue, StageExecute, StageCrack), with Start offsets relative
	// to the server's receipt of the request. Present only when the
	// request carried a trace ID and the server speaks the extension.
	Spans []obs.Span
}

// Stats is the wire form of the serving-layer statistics: scalar summary
// only (the per-query latency series stays server-side).
type Stats struct {
	Queries int
	Errors  int
	// Sheds counts requests refused in-band under overload
	// (StatusOverloaded); they neither executed nor count as Errors.
	Sheds   int
	Elapsed time.Duration
	QPS     float64

	P50, P95, P99, Max time.Duration
}

// Errors shared by the codec layer.
var (
	// ErrFrameTooLarge reports a length prefix above the reader's cap.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrCorrupt reports a payload that does not decode cleanly.
	ErrCorrupt = errors.New("wire: corrupt payload")
	// ErrChecksum reports a frame whose payload does not match its CRC:
	// the stream carried corrupted bytes and cannot be trusted past this
	// point.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
)

// ---------------------------------------------------------------------------
// Framing.

// AppendFrame appends the frame header (length + masked length echo + CRC)
// and payload to buf.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [FrameHeader]byte
	frame.Put(hdr[:], payload, lenEcho)
	return append(append(buf, hdr[:]...), payload...)
}

// MaxPooledBuf bounds the frame and payload buffers the serving path keeps
// between messages: a connection's read buffer and the pooled frames of
// netserve and the client are dropped, not kept, once they have grown past
// it, so one 60 MB response does not pin 60 MB for the life of the process.
const MaxPooledBuf = 1 << 20

// NextReadBuf returns the buffer a read loop passes to its next ReadFrame
// after reading payload: payload's storage, emptied, or nil once it has
// grown past MaxPooledBuf.
func NextReadBuf(payload []byte) []byte {
	if cap(payload) > MaxPooledBuf {
		return nil
	}
	return payload[:0]
}

// ReadFrame reads one length-prefixed, checksummed payload from r into buf,
// growing it when the payload is longer than cap(buf), and returns the
// payload — which aliases buf when it fits. The caller owns buf: a loop that
// passes NextReadBuf(payload) back in reads every frame into one buffer,
// and the payload is valid until it does. DecodeRequest and DecodeResponse
// copy everything they return, so a decoded message outlives its payload.
//
// A header whose masked length echo disagrees with its length draws
// ErrChecksum immediately, before any payload read — a corrupted length
// must never decide how many bytes to wait for, or the reader could stall
// forever on a mis-framed stream. Frames longer than maxFrame
// (DefaultMaxFrame when <= 0) return ErrFrameTooLarge before any payload
// allocation; a payload that fails its CRC returns ErrChecksum — the
// stream carried corruption and the connection should be abandoned. io.EOF
// is returned only on a clean boundary (no partial header).
func ReadFrame(r io.Reader, maxFrame int, buf []byte) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: truncated frame header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	n, ok := frame.Len(hdr[:], lenEcho)
	if !ok {
		return nil, fmt.Errorf("%w: length %d does not match its echo", ErrChecksum, n)
	}
	// Compare in uint64: converting a cap >= 2^32 to uint32 would wrap and
	// reject (or mis-cap) every frame.
	if uint64(n) > uint64(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	payload := buf[:0]
	if int(n) > cap(buf) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: truncated frame body: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if !frame.SumOK(hdr[:], payload) {
		return nil, fmt.Errorf("%w: payload crc over %d bytes", ErrChecksum, n)
	}
	return payload, nil
}

// ---------------------------------------------------------------------------
// Bodies. Strings, bools and value slices use the shared encodings of
// internal/frame; every decoder below reads through one frame.Reader and
// leaves the failure check to DecodeRequest/DecodeResponse.

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }
func appendVarint(buf []byte, v int64) []byte   { return binary.AppendVarint(buf, v) }
func appendDuration(buf []byte, d time.Duration) []byte {
	return appendVarint(buf, int64(d))
}

func readDuration(r *frame.Reader) time.Duration { return time.Duration(r.Varint()) }

// readInt reads a uvarint that must fit an int. Counters are 64-bit: a
// long-lived daemon legitimately exceeds 2^31 queries within hours.
func readInt(r *frame.Reader) int {
	u := r.Uvarint()
	if u > math.MaxInt64 {
		r.Fail()
	}
	return int(u)
}

// readKey reads a tuple key: a varint that must not be negative.
func readKey(r *frame.Reader) int {
	k := r.Varint()
	if k < 0 {
		r.Fail()
	}
	return int(k)
}

func appendPred(buf []byte, p store.Pred) []byte {
	buf = appendVarint(buf, int64(p.Lo))
	buf = appendVarint(buf, int64(p.Hi))
	buf = frame.AppendBool(buf, p.LoIncl)
	return frame.AppendBool(buf, p.HiIncl)
}

func readPred(r *frame.Reader) store.Pred {
	return store.Pred{Lo: r.Varint(), Hi: r.Varint(), LoIncl: r.Bool(), HiIncl: r.Bool()}
}

func appendQuery(buf []byte, q engine.Query) []byte {
	buf = appendUvarint(buf, uint64(len(q.Preds)))
	for _, ap := range q.Preds {
		buf = frame.AppendString(buf, ap.Attr)
		buf = appendPred(buf, ap.Pred)
	}
	buf = appendUvarint(buf, uint64(len(q.Projs)))
	for _, p := range q.Projs {
		buf = frame.AppendString(buf, p)
	}
	return frame.AppendBool(buf, q.Disjunctive)
}

func readQuery(r *frame.Reader) engine.Query {
	var q engine.Query
	if n := r.Count(5); n > 0 { // attr len + 4 pred bytes minimum
		q.Preds = make([]engine.AttrPred, n)
		for i := range q.Preds {
			q.Preds[i] = engine.AttrPred{Attr: r.Str(), Pred: readPred(r)}
		}
	}
	if n := r.Count(1); n > 0 {
		q.Projs = make([]string, n)
		for i := range q.Projs {
			q.Projs[i] = r.Str()
		}
	}
	q.Disjunctive = r.Bool()
	return q
}

// appendResult encodes a result in sorted column order, so the encoding of
// a given Result is canonical regardless of map iteration order — the
// answer-equivalence tests byte-compare encodings.
func appendResult(buf []byte, res engine.Result) []byte {
	buf = appendUvarint(buf, uint64(res.N))
	names := make([]string, 0, len(res.Cols))
	for name := range res.Cols {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = appendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = frame.AppendString(buf, name)
		buf = frame.AppendValues(buf, res.Cols[name])
	}
	return buf
}

// readResult reads a result whose columns each hold exactly N values. N
// is a row count, not a buffer size, so it is capped sanely rather than
// against the remaining bytes: a count-only answer has N rows and no
// columns.
func readResult(r *frame.Reader) engine.Result {
	n := r.Uvarint()
	if n > math.MaxInt32 {
		r.Fail()
	}
	res := engine.Result{N: int(n)}
	cols := r.Count(2) // name len + value count minimum
	res.Cols = make(map[string][]store.Value, cols)
	for i := 0; i < cols; i++ {
		name, vals := r.Str(), r.Values()
		if _, dup := res.Cols[name]; dup || len(vals) != res.N {
			r.Fail()
		}
		res.Cols[name] = vals
	}
	return res
}

func appendCost(buf []byte, c engine.Cost) []byte {
	buf = appendDuration(buf, c.Sel)
	return appendDuration(buf, c.TR)
}

func readCost(r *frame.Reader) engine.Cost {
	return engine.Cost{Sel: readDuration(r), TR: readDuration(r)}
}

func appendStats(buf []byte, st Stats) []byte {
	buf = appendUvarint(buf, uint64(st.Queries))
	buf = appendUvarint(buf, uint64(st.Errors))
	buf = appendUvarint(buf, uint64(st.Sheds))
	buf = appendDuration(buf, st.Elapsed)
	buf = appendUvarint(buf, math.Float64bits(st.QPS))
	buf = appendDuration(buf, st.P50)
	buf = appendDuration(buf, st.P95)
	buf = appendDuration(buf, st.P99)
	return appendDuration(buf, st.Max)
}

func readStats(r *frame.Reader) Stats {
	return Stats{
		Queries: readInt(r), Errors: readInt(r), Sheds: readInt(r),
		Elapsed: readDuration(r), QPS: math.Float64frombits(r.Uvarint()),
		P50: readDuration(r), P95: readDuration(r), P99: readDuration(r), Max: readDuration(r),
	}
}

// appendSpans encodes a span list: count, then per span a stage byte and
// start/dur as nanosecond uvarints. Negative offsets clamp to zero (a
// span never legitimately starts before its trace).
func appendSpans(buf []byte, spans []obs.Span) []byte {
	buf = appendUvarint(buf, uint64(len(spans)))
	for _, sp := range spans {
		buf = append(buf, byte(sp.Stage))
		start, dur := sp.Start, sp.Dur
		if start < 0 {
			start = 0
		}
		if dur < 0 {
			dur = 0
		}
		buf = appendUvarint(buf, uint64(start))
		buf = appendUvarint(buf, uint64(dur))
	}
	return buf
}

func readSpans(r *frame.Reader) []obs.Span {
	n := r.Count(3) // stage byte + two 1-byte uvarints minimum
	if n == 0 {
		return nil
	}
	spans := make([]obs.Span, n)
	for i := range spans {
		st := obs.Stage(r.Byte())
		if st == 0 || st > obs.MaxStage {
			r.Fail()
		}
		spans[i] = obs.Span{Stage: st, Start: time.Duration(readInt(r)), Dur: time.Duration(readInt(r))}
	}
	return spans
}

// ---------------------------------------------------------------------------
// Request codec.

// beginFrame reserves the frame header (length + CRC) in buf, returning
// its offset; endFrame backfills both once the payload has been encoded in
// place. Encoding directly into the destination (the pooled frame buffers
// of netserve and the client) avoids a per-message scratch allocation and
// a full payload copy on the hot path.
func beginFrame(buf []byte) ([]byte, int) {
	return append(buf, make([]byte, FrameHeader)...), len(buf)
}

func endFrame(buf []byte, start int) []byte {
	frame.Put(buf[start:], buf[start+FrameHeader:], lenEcho)
	return buf
}

// maxTTLMicros bounds the decoded deadline hint so a corrupt (or
// adversarial) TTL cannot overflow the Duration conversion.
const maxTTLMicros = uint64(math.MaxInt64 / int64(time.Microsecond))

// AppendRequest appends req as one complete frame (prefix included).
func AppendRequest(buf []byte, req *Request) []byte {
	buf, start := beginFrame(buf)
	op := byte(req.Op)
	if req.Trace != 0 {
		op |= traceFlag
	}
	buf = append(buf, op)
	buf = appendUvarint(buf, req.ID)
	ttl := req.TTL / time.Microsecond
	if ttl < 0 {
		ttl = 0
	}
	buf = appendUvarint(buf, uint64(ttl))
	if req.Trace != 0 {
		buf = appendUvarint(buf, req.Trace)
	}
	switch req.Op {
	case OpQuery, OpQueryRO:
		buf = appendQuery(buf, req.Query)
	case OpInsert:
		buf = appendUvarint(buf, req.Token)
		buf = frame.AppendValues(buf, req.Vals)
	case OpDelete:
		buf = appendUvarint(buf, req.Token)
		buf = appendVarint(buf, int64(req.Key))
	case OpStats, OpPing:
		// no body
	case OpHello:
		buf = appendUvarint(buf, req.Version)
	default:
		panic(fmt.Sprintf("wire: cannot encode request op %v", req.Op))
	}
	return endFrame(buf, start)
}

// DecodeRequest decodes one request payload (a frame body).
func DecodeRequest(payload []byte) (Request, error) {
	r := frame.NewReader(payload)
	tagged := r.Byte()
	req := Request{ID: r.Uvarint(), Op: Op(tagged &^ traceFlag)}
	ttl := r.Uvarint()
	if ttl > maxTTLMicros {
		r.Fail()
	}
	req.TTL = time.Duration(ttl) * time.Microsecond
	if tagged&traceFlag != 0 {
		if req.Trace = r.Uvarint(); req.Trace == 0 {
			r.Fail() // a traced request names its trace
		}
	}
	switch req.Op {
	case OpQuery, OpQueryRO:
		req.Query = readQuery(&r)
	case OpInsert:
		req.Token = r.Uvarint()
		req.Vals = r.Values()
	case OpDelete:
		req.Token = r.Uvarint()
		req.Key = readKey(&r)
	case OpStats, OpPing:
		// no body
	case OpHello:
		req.Version = r.Uvarint()
	default:
		return Request{}, fmt.Errorf("%w: unknown request op %d", ErrCorrupt, byte(req.Op))
	}
	if !r.Done() {
		return Request{}, ErrCorrupt
	}
	return req, nil
}

// ---------------------------------------------------------------------------
// Response codec.

// AppendResponse appends resp as one complete frame (prefix included).
func AppendResponse(buf []byte, resp *Response) []byte {
	buf, start := beginFrame(buf)
	tag := byte(resp.Op) | respTag
	if len(resp.Spans) > 0 {
		tag |= traceFlag
	}
	buf = append(buf, tag)
	buf = appendUvarint(buf, resp.ID)
	buf = append(buf, byte(resp.Status))
	switch resp.Status {
	case StatusErr:
		buf = frame.AppendString(buf, resp.Err)
	case StatusRefused:
		// no body: the query must be retried as OpQuery
	case StatusOverloaded:
		// no body: the request was shed before executing; retry with backoff
	case StatusOK:
		switch resp.Op {
		case OpQuery, OpQueryRO:
			buf = appendResult(buf, resp.Result)
			buf = appendCost(buf, resp.Cost)
		case OpInsert:
			buf = appendVarint(buf, int64(resp.Key))
		case OpDelete, OpPing:
			// no body
		case OpStats:
			buf = appendStats(buf, resp.Stats)
		case OpHello:
			buf = appendUvarint(buf, resp.Version)
		default:
			panic(fmt.Sprintf("wire: cannot encode response op %v", resp.Op))
		}
	default:
		panic(fmt.Sprintf("wire: cannot encode response status %d", resp.Status))
	}
	if len(resp.Spans) > 0 {
		buf = appendSpans(buf, resp.Spans)
	}
	return endFrame(buf, start)
}

// DecodeResponse decodes one response payload (a frame body).
func DecodeResponse(payload []byte) (Response, error) {
	r := frame.NewReader(payload)
	tagged := r.Byte()
	if tagged&respTag == 0 {
		return Response{}, fmt.Errorf("%w: payload is not a response", ErrCorrupt)
	}
	resp := Response{Op: Op(tagged &^ (respTag | traceFlag)), ID: r.Uvarint(), Status: Status(r.Byte())}
	switch resp.Status {
	case StatusErr:
		resp.Err = r.Str()
	case StatusRefused:
		if resp.Op != OpQueryRO {
			return Response{}, fmt.Errorf("%w: refused status on %v", ErrCorrupt, resp.Op)
		}
	case StatusOverloaded:
		switch resp.Op {
		case OpQuery, OpQueryRO, OpInsert, OpDelete, OpStats, OpPing, OpHello:
			// no body
		default:
			return Response{}, fmt.Errorf("%w: overloaded status on unknown op %d", ErrCorrupt, byte(resp.Op))
		}
	case StatusOK:
		switch resp.Op {
		case OpQuery, OpQueryRO:
			resp.Result, resp.Cost = readResult(&r), readCost(&r)
		case OpInsert:
			resp.Key = readKey(&r)
		case OpDelete, OpPing:
			// no body
		case OpStats:
			resp.Stats = readStats(&r)
		case OpHello:
			resp.Version = r.Uvarint()
		default:
			return Response{}, fmt.Errorf("%w: unknown response op %d", ErrCorrupt, byte(resp.Op))
		}
	default:
		return Response{}, fmt.Errorf("%w: unknown status %d", ErrCorrupt, byte(resp.Status))
	}
	if tagged&traceFlag != 0 {
		resp.Spans = readSpans(&r)
	}
	if !r.Done() {
		return Response{}, ErrCorrupt
	}
	return resp, nil
}
