// Package netserve puts a network boundary in front of the serving layer:
// a TCP server that speaks the internal/wire protocol and dispatches
// decoded requests into a serve.Server, so remote clients
// (crackstore/client, cmd/crackserved) reach the same bounded-concurrency,
// latency-tracked execution path in-process callers get.
//
// Each accepted connection runs exactly two long-lived goroutines: a reader
// that decodes frames and dispatches each request on its own (pipeline-
// capped) goroutine, and a writer that serializes response frames back,
// coalescing flushes while the connection is busy. Because every request
// carries an ID and responses are written in completion order, a single
// connection pipelines many in-flight requests — a slow crack does not
// stall the answers of the read-only queries behind it (pair with
// serve.Options.Timeout to bound the slow request itself). The reader
// answers the warm majority itself: a query of either read op, OpQuery or
// OpQueryRO, that the engine can take without reorganizing while a worker
// slot is free executes inline and costs no goroutine handoff. A read-only
// request (OpQueryRO) executes Engine.QueryRO through the serving layer and
// nothing else, on either path: the engine's refusal comes back as
// StatusRefused. Network events are counted once, in obs instruments the
// server always keeps.
//
// Malformed input never kills the process: an oversized frame or an
// undecodable payload draws an error response and, when the stream can no
// longer be trusted (framing desync), a clean close of that one connection.
// Close drains gracefully — it stops accepting, unblocks the readers, waits
// for every dispatched request to be answered and flushed, then closes the
// connections and the serving layer.
package netserve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/wire"
)

// Options tunes the network server.
type Options struct {
	// Serve configures the underlying serving layer (Workers, MaxWaiting,
	// per-query Timeout).
	Serve serve.Options
	// MaxFrame caps frame sizes in both directions: request frames
	// announcing more are rejected without allocation, and a response
	// that would encode larger (a very wide result) is converted to an
	// in-band error rather than shipped to a peer whose reader would
	// reject it and drop the connection. 0 means wire.DefaultMaxFrame.
	MaxFrame int
	// MaxInflight caps requests in flight across ALL connections; one more
	// is answered wire.StatusOverloaded in-band — the connection stays
	// healthy and the client backs off. 0 disables the global cap (the
	// per-connection cap, maxPipeline, still applies). Ping is exempt:
	// health checks must answer precisely when the server is saturated.
	MaxInflight int
	// Metrics, when non-nil, exports the network layer's counters (frames,
	// bytes, corrupt frames, dedup hits, connections, sheds) as the
	// crack_net_* families of the registry; it is also forwarded to the
	// serving layer unless Serve.Metrics is already set, so one registry
	// observes both layers. The counters exist and count either way.
	Metrics *obs.Registry
	// TraceSample, when > 0, server-side samples one in TraceSample
	// non-ping requests for tracing (rounded up to the next power of
	// two): the sampled request takes the fully
	// timed dispatch path and its trace is emitted as a one-line JSON
	// event on TraceSink. Client-initiated traces (requests carrying a
	// trace ID) are always honored regardless of this setting.
	TraceSample int
	// TraceSink receives one-line JSON trace events for sampled and
	// client-traced requests. Nil with TraceSample > 0 means os.Stderr;
	// nil with TraceSample == 0 means client-traced requests return their
	// spans to the client but emit no server-side events.
	TraceSink io.Writer
}

func (o Options) withDefaults() Options {
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	if o.MaxFrame > math.MaxUint32-4 {
		// The frame length prefix is a uint32; a larger cap could let an
		// encoded length wrap and desync the stream.
		o.MaxFrame = math.MaxUint32 - 4
	}
	if o.Serve.LatencyWindow <= 0 {
		// A network server is long-running by nature: without a window the
		// latency history grows ~8 bytes per query forever. 2^20 samples
		// (~8 MB) keeps percentiles meaningful at any realistic rate.
		o.Serve.LatencyWindow = 1 << 20
	}
	if o.Metrics != nil && o.Serve.Metrics == nil {
		o.Serve.Metrics = o.Metrics
	}
	if o.TraceSample > 0 && o.TraceSink == nil {
		o.TraceSink = os.Stderr
	}
	return o
}

const (
	// maxPipeline caps the in-flight requests per connection. A client
	// pipelining deeper is backpressured at the TCP level (the reader stops
	// reading), never disconnected.
	maxPipeline = 256
	// dedupTokens bounds the idempotency-token dedup map: the server
	// remembers the response of the last dedupTokens tokened writes and
	// replays it when a client retry re-sends a token, so a write whose
	// response was lost in transit is applied exactly once.
	dedupTokens = 4096
)

// ErrClosed is returned by Serve when the server has been closed.
var ErrClosed = errors.New("netserve: server is closed")

// Server serves a crackstore engine over TCP.
type Server struct {
	srv  *serve.Server
	opts Options
	// inlineRO enables the reader-goroutine fast path for read-only
	// queries. Cracking engines answer QueryRO in sublinear time plus a
	// clustered copy, so executing inline beats a goroutine handoff; Scan
	// answers every query "read-only" with a full relation scan, which
	// would serialize a connection's whole pipeline on its one reader — it
	// always dispatches.
	inlineRO bool

	// glimit is the global in-flight cap (nil when MaxInflight is 0).
	glimit chan struct{}
	dedup  *dedupWindow

	// The network layer's counters, each kept once and always on; sheds
	// counts requests answered StatusOverloaded at this layer.
	framesRead, framesWritten *obs.Counter
	bytesRead, bytesWritten   *obs.Counter
	corrupt, dedupHits        *obs.Counter
	hellos, traces, sheds     *obs.Counter
	connsTotal                *obs.Counter
	connsOpen                 *obs.Gauge

	sampler *obs.Sampler // server-side 1-in-N trace sampling (nil = off)
	traceMu sync.Mutex   // serializes one-line JSON trace events on traceSink

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	serveErr error // fatal accept error, surfaced by Close
	closed   atomic.Bool
	wg       sync.WaitGroup // accept loop + per-connection goroutines
}

// NewServer builds a network server over e without listening yet; call
// Serve with a listener. The engine is wrapped exactly as serve.New does:
// in engine.Concurrent unless it already guards itself.
func NewServer(e engine.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	r := opts.Metrics // nil registers nowhere and still returns working instruments
	s := &Server{
		srv:      serve.New(e, opts.Serve),
		opts:     opts,
		inlineRO: e.Kind() != engine.Scan,
		dedup:    newDedupWindow(dedupTokens),
		conns:    make(map[*conn]struct{}),
		sampler:  obs.NewSampler(opts.TraceSample),

		framesRead:    r.Counter("crack_net_frames_read_total", "request frames decoded off client connections"),
		framesWritten: r.Counter("crack_net_frames_written_total", "response frames written to client connections"),
		bytesRead:     r.Counter("crack_net_bytes_read_total", "bytes read off client connections (frame headers included)"),
		bytesWritten:  r.Counter("crack_net_bytes_written_total", "bytes written to client connections (frame headers included)"),
		corrupt:       r.Counter("crack_net_corrupt_frames_total", "frames rejected as oversized, undecodable, or corrupt"),
		dedupHits:     r.Counter("crack_net_dedup_hits_total", "retried writes answered from the idempotency dedup window"),
		hellos:        r.Counter("crack_net_hello_total", "protocol version negotiations answered"),
		connsTotal:    r.Counter("crack_net_conns_total", "connections accepted"),
		traces:        r.Counter("crack_net_traces_total", "requests traced (client-initiated plus server-sampled)"),
		connsOpen:     r.Gauge("crack_net_conns", "currently open connections"),
		sheds:         r.Counter("crack_net_sheds_total", "requests shed by the global in-flight cap"),
	}
	if opts.MaxInflight > 0 {
		s.glimit = make(chan struct{}, opts.MaxInflight)
	}
	return s
}

// Listen starts serving e on addr (e.g. ":9090", "127.0.0.1:0") in a
// background goroutine and returns once the listener is bound, so
// Addr() is immediately valid.
func Listen(addr string, e engine.Engine, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := NewServer(e, opts)
	s.mu.Lock()
	s.ln = ln // bind before the accept goroutine runs, so Addr() is valid now
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return s, nil
}

// Serve accepts connections on ln until Close. It returns ErrClosed after
// a graceful Close, or the accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	if !s.bind(ln) {
		ln.Close()
		return ErrClosed
	}
	backoff := 5 * time.Millisecond
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return ErrClosed
			}
			// Transient accept failures (EMFILE under load, ECONNABORTED)
			// must not silently kill the accept loop and leave a half-dead
			// daemon; back off and retry. Only a closed listener is fatal.
			if !errors.Is(err, net.ErrClosed) {
				time.Sleep(backoff)
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
			return err
		}
		backoff = 5 * time.Millisecond
		c := &conn{
			s:     s,
			nc:    nc,
			out:   make(chan *[]byte, 64),
			limit: make(chan struct{}, maxPipeline),
		}
		if !s.register(c) {
			nc.Close()
			return ErrClosed
		}
		s.connsTotal.Inc()
		s.connsOpen.Add(1)
		go c.readLoop()
		go c.writeLoop()
	}
}

// bind makes ln the listener (a no-op when Listen already bound it; the
// last listener wins otherwise), unless Close already ran.
func (s *Server) bind(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.ln = ln
	return true
}

// register adds c to the live connections, unless Close already ran.
func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	// Add under the lock: a concurrent Close between registration and
	// Add would otherwise see a zero WaitGroup, Wait through it, and
	// tear the serve layer down under this connection's goroutines.
	s.wg.Add(2)
	return true
}

// Addr returns the bound listener address (nil before Serve/Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats snapshots the serving-layer statistics (queries executed over all
// connections; inserts and deletes are not counted as queries). Sheds sums
// both shed layers: the serve watermark and the netserve global in-flight
// cap.
func (s *Server) Stats() serve.Stats {
	st := s.srv.Stats()
	st.Sheds += int(s.sheds.Value())
	return st
}

// Engine returns the shared (wrapped) engine requests execute against.
func (s *Server) Engine() engine.Engine { return s.srv.Engine() }

// Close drains the server gracefully: stop accepting, unblock every
// connection's reader, answer and flush every request already dispatched,
// close the connections, then close the serving layer. Idempotent. It
// returns the fatal accept error if the listener died before Close (a
// daemon that stopped accepting mid-run), nil after a clean shutdown.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.interrupt()
	s.wg.Wait()
	s.srv.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}

// interrupt closes the listener and unblocks every connection's reader,
// which drains its in-flight requests and shuts the connection down on its
// way out.
func (s *Server) interrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.connsOpen.Add(-1)
}

// ---------------------------------------------------------------------------
// Per-connection handling.

type conn struct {
	s  *Server
	nc net.Conn

	out      chan *[]byte   // encoded response frames, reader/dispatch -> writer
	limit    chan struct{}  // in-flight request cap (maxPipeline slots)
	inflight sync.WaitGroup // dispatched requests not yet answered

	// inlineCooldown (reader-goroutine local) dispatches the next N
	// requests off-reader after an inline execution overran inlineCutoff:
	// one oversized read-only result may head-of-line block the pipeline
	// once, but not repeatedly.
	inlineCooldown int
}

// Inline fast-path feedback bounds: an inline execution longer than
// inlineCutoff pushes the next inlineCooldownN requests onto dispatch
// goroutines, restoring out-of-order completion for heavy streaks.
const (
	inlineCutoff    = 250 * time.Microsecond
	inlineCooldownN = 64
)

// readLoop decodes request frames and dispatches them until the stream
// ends (peer close, Close() deadline, or an unrecoverable protocol error),
// then drains: waits for dispatched requests, lets the writer flush, and
// closes the socket.
func (c *conn) readLoop() {
	defer c.s.wg.Done()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte // every request payload is read here; valid until the next read
	// Every inline answer is written here (engine.Query.Into): the reader
	// encodes its frame before it reads the next request. Dispatched requests
	// lend nothing — serve lets a timed-out execution run on, detached, and
	// it would write into memory the reader has moved on with.
	var res engine.Result
	for {
		payload, err := wire.ReadFrame(br, c.s.opts.MaxFrame, buf)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrCorrupt) {
				c.s.corrupt.Inc()
			}
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The length prefix itself was intact: report the refusal
				// before hanging up (the body was never read, so the
				// stream position is unrecoverable).
				c.send(&wire.Response{Status: wire.StatusErr, Err: err.Error()})
			}
			break
		}
		buf = wire.NextReadBuf(payload)
		c.s.framesRead.Inc()
		c.s.bytesRead.Add(uint64(len(payload) + wire.FrameHeader))
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			c.s.corrupt.Inc()
			// Framing was intact — only this payload is bad. If its header
			// (op + ID) survives, answer the error in-band and keep
			// serving the connection; otherwise the peer is not speaking
			// our protocol and the connection ends.
			if op, id, ok := headerOf(payload); ok {
				c.send(&wire.Response{ID: id, Op: op, Status: wire.StatusErr, Err: err.Error()})
				continue
			}
			c.send(&wire.Response{Status: wire.StatusErr, Err: err.Error()})
			break
		}
		arrival := time.Now()
		// Ping answers on the reader, ahead of every limit: its whole point
		// is fast peer-death detection, so it must respond even when the
		// pipeline is saturated or the pool is shedding.
		if req.Op == wire.OpPing {
			c.send(&wire.Response{ID: req.ID, Op: wire.OpPing, Status: wire.StatusOK})
			continue
		}
		// Server-side trace sampling: a sampled request borrows the traced
		// dispatch path (fully timed, off-reader) but its spans stay on the
		// server — the client did not ask for them.
		sampled := false
		if req.Trace == 0 {
			if id, ok := c.s.sampler.Next(); ok {
				req.Trace, sampled = id, true
			}
		}
		// Global in-flight cap: over the line, the request is shed in-band
		// with StatusOverloaded — never by closing the conn — and the client
		// backs off and retries.
		acquired := false
		if c.s.glimit != nil {
			select {
			case c.s.glimit <- struct{}{}:
				acquired = true
			default:
				c.s.sheds.Inc()
				c.send(&wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOverloaded})
				continue
			}
		}
		// Fast path: the warm read-only majority is answered inline — no
		// goroutine handoff, no semaphore wait — whenever the engine can
		// take the query without reorganizing and a slot is free. Slow
		// queries (cracks, merges, updates, a momentarily full pool, a
		// full-scan engine per Server.inlineRO, or a post-overrun cooldown)
		// fall through to dispatch goroutines and complete out of order —
		// where an OpQueryRO the engine refused here is refused again, and
		// answered StatusRefused. Traced requests always dispatch: tracing
		// wants the fully timed path, and at 1-in-N sampling the handoff
		// cost is noise.
		if (req.Op == wire.OpQuery || req.Op == wire.OpQueryRO) && req.Trace == 0 && c.s.inlineRO && c.inlineCooldown == 0 {
			t0 := time.Now()
			q := req.Query
			q.Into = &res
			if ans, cost, ok := c.s.srv.TryRO(q); ok {
				c.send(&wire.Response{ID: req.ID, Op: req.Op, Result: ans, Cost: cost})
				if time.Since(t0) > inlineCutoff {
					c.inlineCooldown = inlineCooldownN
				}
				if acquired {
					<-c.s.glimit
				}
				continue
			}
		} else if c.inlineCooldown > 0 {
			c.inlineCooldown--
		}
		c.limit <- struct{}{} // pipeline cap: backpressure instead of unbounded goroutines
		c.inflight.Add(1)
		go func(req wire.Request, acquired, sampled bool) {
			defer c.inflight.Done()
			resp := c.s.dispatch(&req, arrival)
			if req.Trace != 0 {
				c.s.traces.Inc()
				c.sendTraced(&req, resp, arrival, sampled)
			} else {
				c.send(resp)
			}
			if acquired {
				<-c.s.glimit
			}
			<-c.limit
		}(req, acquired, sampled)
	}
	c.inflight.Wait() // every dispatched request has queued its response
	close(c.out)      // writer flushes the tail and exits
	c.s.dropConn(c)
}

// frameBufPool recycles response frame buffers between requests: the
// writer returns each buffer after it hits the socket, so steady-state
// serving allocates no fresh frame per response. A buffer grown past
// wire.MaxPooledBuf is dropped instead.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// writeLoop serializes response frames onto the socket, flushing whenever
// the queue momentarily empties (so pipelined bursts coalesce into few
// syscalls without adding latency). On a write error it keeps draining the
// channel so dispatch goroutines can never block on a dead connection.
func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	defer c.nc.Close()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	broken := false
	for frame := range c.out {
		if !broken {
			if _, err := bw.Write(*frame); err != nil {
				broken = true
			} else {
				c.s.framesWritten.Inc()
				c.s.bytesWritten.Add(uint64(len(*frame)))
				if len(c.out) == 0 && bw.Flush() != nil {
					broken = true
				}
			}
		}
		if cap(*frame) <= wire.MaxPooledBuf {
			*frame = (*frame)[:0]
			frameBufPool.Put(frame)
		}
	}
	if !broken {
		bw.Flush()
	}
}

// send enqueues one encoded response. A response whose frame exceeds
// MaxFrame (the cap is symmetric: clients enforce it on reads) is replaced
// by an in-band error for that one request — shipping it would make the
// peer's frame reader kill the whole connection, failing every pipelined
// call, for one oversized result. send never blocks forever: the writer
// drains the channel until the reader closes it, even on a broken socket.
func (c *conn) send(resp *wire.Response) {
	c.out <- c.encodeFrame(resp)
}

// encodeFrame encodes one response into a pooled frame buffer, applying
// the oversize-to-error conversion. The frame holds a copy of the result, so
// once it returns the reader may lend the result's memory again.
func (c *conn) encodeFrame(resp *wire.Response) *[]byte {
	buf := frameBufPool.Get().(*[]byte)
	*buf = wire.AppendResponse(*buf, resp)
	if len(*buf)-wire.FrameHeader > c.s.opts.MaxFrame {
		over := len(*buf) - wire.FrameHeader
		*buf = wire.AppendResponse((*buf)[:0], &wire.Response{
			ID: resp.ID, Op: resp.Op, Status: wire.StatusErr,
			Err: fmt.Sprintf("netserve: response frame %d bytes exceeds the %d-byte limit; narrow the query or raise MaxFrame", over, c.s.opts.MaxFrame),
		})
	}
	return buf
}

// sendTraced encodes and enqueues a traced request's response, timing the
// encode, and emits the server-side trace event: the response's spans
// plus the encode span the response cannot carry about itself. A sampled
// (server-initiated) trace strips the spans from the wire response first
// — the client did not ask for them.
func (c *conn) sendTraced(req *wire.Request, resp *wire.Response, arrival time.Time, sampled bool) {
	spans := resp.Spans
	if sampled {
		resp.Spans = nil
	}
	t0 := time.Now()
	buf := c.encodeFrame(resp)
	enc := time.Since(t0)
	if c.s.opts.TraceSink != nil {
		tr := obs.Trace{
			ID:    req.Trace,
			Op:    req.Op.String(),
			Total: time.Since(arrival),
			Err:   resp.Err,
			Spans: append(spans, obs.Span{Stage: obs.StageEncode, Start: t0.Sub(arrival), Dur: enc}),
		}
		c.s.writeTrace(&tr)
	}
	c.out <- buf
}

// writeTrace writes one trace to the sink, which every connection shares.
func (s *Server) writeTrace(tr *obs.Trace) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	tr.WriteJSON(s.opts.TraceSink)
}

// headerOf attempts to salvage the op and request ID from a payload whose
// full decode failed, so the error can be delivered to the right waiter.
func headerOf(payload []byte) (wire.Op, uint64, bool) {
	if len(payload) < 1 {
		return 0, 0, false
	}
	id, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, 0, false
	}
	return wire.Op(payload[0]), id, true
}

// ---------------------------------------------------------------------------
// Request dispatch.

// dispatch executes one decoded request against the serving layer and
// builds its response. Writes carrying an idempotency token pass through
// the dedup window first: a token already seen replays the recorded
// response (re-addressed to the retry's request ID) instead of applying
// the write twice — the exactly-once half of the client's
// retry-after-send contract.
func (s *Server) dispatch(req *wire.Request, arrival time.Time) *wire.Response {
	if req.Token != 0 && (req.Op == wire.OpInsert || req.Op == wire.OpDelete) {
		e, first := s.dedup.claim(req.Token)
		if !first {
			// A retry of a write the server already owns: wait out the
			// original execution if needed and replay its response.
			s.dedupHits.Inc()
			<-e.done
			r := e.resp
			r.ID = req.ID
			return &r
		}
		resp := s.exec(req, arrival)
		e.resp = *resp
		close(e.done)
		return resp
	}
	return s.exec(req, arrival)
}

// exec runs one request against the serving layer and builds its response.
// Engine panics (malformed tuples, unknown attributes) become error
// responses, never process deaths; serve-layer sheds and expiries map to
// their in-band statuses.
func (s *Server) exec(req *wire.Request, arrival time.Time) (resp *wire.Response) {
	resp = &wire.Response{ID: req.ID, Op: req.Op}
	defer func() {
		if r := recover(); r != nil {
			resp.Status = wire.StatusErr
			resp.Err = fmt.Sprintf("netserve: %v panicked: %v", req.Op, r)
			resp.Result = engine.Result{}
			resp.Cost = engine.Cost{}
		}
	}()
	// The wire TTL hint becomes an absolute deadline anchored at frame
	// arrival: a query whose client has already given up is skipped by the
	// serve layer instead of burning a worker slot.
	var deadline time.Time
	if req.TTL > 0 {
		deadline = arrival.Add(req.TTL)
	}
	fail := func(err error) *wire.Response {
		if errors.Is(err, serve.ErrOverloaded) {
			resp.Status = wire.StatusOverloaded
			return resp
		}
		resp.Status = wire.StatusErr
		resp.Err = err.Error()
		return resp
	}
	// Traced queries go through the span-capturing entry point; their
	// response carries queue/execute/crack spans back to the client.
	var sp *serve.SpanTimes
	if req.Trace != 0 {
		sp = new(serve.SpanTimes)
	}
	switch req.Op {
	case wire.OpQuery:
		res, cost, err := s.srv.DoUntilSpans(req.Query, deadline, sp)
		if err != nil {
			return fail(err)
		}
		resp.Result, resp.Cost = res, cost
		resp.Spans = serverSpans(sp, cost)
	case wire.OpQueryRO:
		// Read-only requests stay inside the serving layer so the worker
		// bound, per-query deadline, and statistics apply to them exactly
		// as to full queries — and they execute Engine.QueryRO only, so the
		// contract "never reorganizes, else StatusRefused" holds whatever
		// writes land meanwhile: the engine's refusal is the one answer.
		res, cost, ok, err := s.srv.DoRO(req.Query, deadline, sp)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = wire.StatusRefused
			return resp
		}
		resp.Result, resp.Cost = res, cost
		resp.Spans = serverSpans(sp, cost)
	case wire.OpInsert:
		// A durable engine refuses an insert it cannot log (wrong width,
		// poisoned log) with key -1; on the wire a key is never negative.
		if resp.Key = s.srv.Engine().Insert(req.Vals...); resp.Key < 0 {
			return fail(errors.New("netserve: insert refused"))
		}
	case wire.OpDelete:
		s.srv.Engine().Delete(req.Key)
	case wire.OpPing:
		// Normally answered on the reader; kept here so a directly
		// dispatched ping still works.
	case wire.OpHello:
		// Version negotiation: answer with the server's protocol version.
		// Old servers answer OpHello with an in-band unknown-op error,
		// which new clients read as "version 1, no tracing".
		s.hellos.Inc()
		resp.Version = wire.ProtoVersion
	case wire.OpStats:
		st := s.Stats()
		resp.Stats = wire.Stats{
			Queries: st.Queries,
			Errors:  st.Errors,
			Sheds:   st.Sheds,
			Elapsed: st.Elapsed,
			QPS:     st.QPS,
			P50:     st.P50,
			P95:     st.P95,
			P99:     st.P99,
			Max:     st.Max,
		}
	default:
		resp.Status = wire.StatusErr
		resp.Err = fmt.Sprintf("netserve: unknown op %d", byte(req.Op))
	}
	return resp
}

// serverSpans converts the serving layer's stage times into wire spans,
// anchored at the serve entry (the client re-anchors them after its send
// span). The crack span is the selection side of execution — locating
// qualifying tuples, including any physical reorganization — nested at
// the start of the execute span. Returns nil for an untraced call.
func serverSpans(sp *serve.SpanTimes, cost engine.Cost) []obs.Span {
	if sp == nil {
		return nil
	}
	spans := []obs.Span{
		{Stage: obs.StageQueue, Start: 0, Dur: sp.Queue},
		{Stage: obs.StageExecute, Start: sp.Queue, Dur: sp.Exec},
	}
	if cost.Sel > 0 {
		spans = append(spans, obs.Span{Stage: obs.StageCrack, Start: sp.Queue, Dur: cost.Sel})
	}
	return spans
}

var _ io.Closer = (*Server)(nil)
