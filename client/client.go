// Package client is the remote counterpart of the in-process engine API: a
// connection to a crackserved daemon (or any internal/netserve listener)
// that speaks the internal/wire protocol and returns the same typed
// results — engine.Result, engine.Cost — an in-process Engine would.
//
// A Client multiplexes any number of concurrent callers over a small pool
// of TCP connections. Every request carries an ID, so many requests from
// many goroutines are in flight on one connection at once (pipelining) and
// responses are matched as they arrive, in whatever order the server
// finishes them. Calls are synchronous per goroutine: fire N goroutines to
// keep N requests in flight.
//
// The Client is resilient by default. A connection that dies is evicted
// from the pool and re-dialed with backoff, so one reset never poisons the
// pool. Failed calls are retried with jittered exponential backoff when
// that is provably safe: requests that never reached the wire always,
// reads/pings/stats always (they are idempotent), and writes because every
// Insert/Delete carries an idempotency token the server deduplicates — a
// retried write whose original actually executed gets the recorded
// response replayed instead of a second application. In-band
// wire.StatusOverloaded sheds are also retried after backoff. Context-
// carrying variants (QueryContext, ...) bound each call and propagate the
// remaining time as a wire TTL hint so the server skips work nobody
// awaits. Optional hedged reads (Options.HedgeAfter) fire a second QueryRO
// on another pooled connection once the first is unanswered after a fixed
// delay and take whichever answers first.
//
// The crackstore root package re-exports Dial, so typical use is:
//
//	c, err := crackstore.Dial("localhost:9090", crackstore.DialOptions{Conns: 2})
//	res, cost, err := c.Query(q) // same types as Engine.Query
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bufio"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/store"
	"crackstore/internal/wire"
)

// Options tunes a Client.
type Options struct {
	// Conns is the number of pooled TCP connections; 0 means 1. Requests
	// round-robin across them; each connection pipelines independently.
	Conns int
	// MaxFrame caps the size of an accepted response frame; 0 means
	// wire.DefaultMaxFrame.
	MaxFrame int
	// DialTimeout bounds connection establishment; 0 means 5s.
	DialTimeout time.Duration

	// MaxRetries caps how many times one call is re-attempted after a
	// retryable failure (conn-level error on an idempotent or tokened
	// request, or an in-band overload shed). 0 means 4; negative disables
	// retries entirely.
	MaxRetries int
	// RetryBase is the first backoff step (doubled each retry, jittered);
	// 0 means 2ms.
	RetryBase time.Duration
	// RetryMax caps the backoff step; 0 means 250ms.
	RetryMax time.Duration

	// HedgeAfter, when > 0 and Conns >= 2, hedges read-only queries: a
	// QueryRO still unanswered after HedgeAfter fires a duplicate on
	// another pooled connection and the first answer wins (the loser is
	// abandoned, its late response dropped). 0 never hedges.
	HedgeAfter time.Duration

	// Metrics, when non-nil, registers the client's resilience counters
	// (crack_client_retries_total, ...) into the registry at Dial. The
	// closures read the same counters Client.Counters snapshots, at scrape
	// time only. One registry accepts one client (duplicate names panic).
	Metrics *obs.Registry
	// TraceSample, when > 0, samples one in TraceSample queries for
	// end-to-end tracing (rounded up to the next power of two, so the
	// untraced path stays division-free). Dial negotiates the protocol
	// version with an
	// OpHello; a server that does not speak the tracing extension (it
	// answers Hello with an unknown-op error) silently disables tracing,
	// so a new client never breaks against an old server. Each sampled
	// query carries a client-allocated trace ID to the server, and the
	// assembled trace — client send, server queue/execute/crack, client
	// recv — is handed to OnTrace.
	TraceSample int
	// OnTrace receives each completed trace, synchronously on the calling
	// goroutine (keep it cheap; tr.WriteJSON to a line-buffered sink is
	// the intended use). Nil discards traces.
	OnTrace func(tr *obs.Trace)
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	switch {
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	case o.MaxRetries == 0:
		o.MaxRetries = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	return o
}

// ErrClosed is returned by calls on a closed Client.
var ErrClosed = errors.New("client: connection is closed")

// ErrOverloaded is returned when the server shed the request
// (wire.StatusOverloaded) and the retry budget ran out backing off.
var ErrOverloaded = errors.New("client: server overloaded")

// Stats is the scalar serving-statistics summary a server reports
// (Client.Stats): query and error counts, throughput, and latency
// percentiles as measured server-side.
type Stats = wire.Stats

// Counters are the client-side resilience counters: how often the retry,
// hedge, shed, and redial machinery actually fired. All monotonically
// increasing; snapshot with Client.Counters.
type Counters struct {
	Retries   uint64 // re-attempts after a retryable failure
	Hedges    uint64 // hedge requests fired
	HedgeWins uint64 // hedges whose answer arrived first
	Sheds     uint64 // StatusOverloaded responses observed
	Redials   uint64 // pool connections re-established after eviction
}

// counters holds the live atomic counters behind Counters. One struct
// (rather than loose fields) so the snapshot method and the metrics
// bridge observably read the same instruments.
type counters struct {
	retries   obs.Counter
	hedges    obs.Counter
	hedgeWins obs.Counter
	sheds     obs.Counter
	redials   obs.Counter
}

// Client is a pooled, multiplexing connection to a remote engine.
type Client struct {
	addr  string
	opts  Options
	slots []*slot
	rr    atomic.Uint64
	// tokens: a random per-client base plus a counter, so concurrent
	// clients of one server draw from disjoint ranges with overwhelming
	// probability and the server's dedup window never conflates them.
	tokBase uint64
	tokSeq  atomic.Uint64
	closed  atomic.Bool

	ctr     counters
	sampler *obs.Sampler // nil unless tracing was enabled AND negotiated
}

// Dial connects to a crackserved daemon at addr.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{addr: addr, opts: opts, tokBase: rand.Uint64() | 1}
	for i := 0; i < opts.Conns; i++ {
		nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: dial %s: %w", addr, err)
		}
		c.slots = append(c.slots, &slot{cn: newConn(nc, opts.MaxFrame)})
	}
	if opts.TraceSample > 0 && c.hello() {
		c.sampler = obs.NewSampler(opts.TraceSample)
	}
	if r := opts.Metrics; r != nil {
		r.CounterFunc("crack_client_retries_total", "re-attempts after a retryable failure", c.ctr.retries.Value)
		r.CounterFunc("crack_client_hedges_total", "hedge requests fired", c.ctr.hedges.Value)
		r.CounterFunc("crack_client_hedge_wins_total", "hedges whose answer arrived first", c.ctr.hedgeWins.Value)
		r.CounterFunc("crack_client_sheds_total", "StatusOverloaded responses observed", c.ctr.sheds.Value)
		r.CounterFunc("crack_client_redials_total", "pool connections re-established after eviction", c.ctr.redials.Value)
	}
	return c, nil
}

// hello negotiates the protocol version, reporting whether the server
// speaks the tracing extension (version 2+). An old server answers the
// unknown op with an in-band error — that, and any transport failure,
// reads as "no": tracing downgrades silently, the client still works.
func (c *Client) hello() bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.DialTimeout)
	defer cancel()
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpHello, Version: wire.ProtoVersion})
	return err == nil && resp.Status == wire.StatusOK && resp.Version >= 2
}

// Close closes every pooled connection. In-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, sl := range c.slots {
		sl.close()
	}
	return nil
}

// Counters snapshots the resilience counters. The snapshot is relaxed —
// counters keep moving while it is taken, so the fields need not be
// mutually consistent to the instant — but it is causally ordered:
// every counter is loaded before any counter its increments causally
// follow (HedgeWins is read before Hedges, and a win is only ever
// recorded after its hedge), so impossible states like
// HedgeWins > Hedges can never be observed.
func (c *Client) Counters() Counters {
	wins := c.ctr.hedgeWins.Value()
	hedges := c.ctr.hedges.Value()
	retries := c.ctr.retries.Value()
	sheds := c.ctr.sheds.Value()
	redials := c.ctr.redials.Value()
	return Counters{
		Retries:   retries,
		Hedges:    hedges,
		HedgeWins: wins,
		Sheds:     sheds,
		Redials:   redials,
	}
}

// nextToken mints a fresh nonzero idempotency token.
func (c *Client) nextToken() uint64 {
	for {
		if t := c.tokBase + c.tokSeq.Add(1); t != 0 {
			return t
		}
	}
}

// retryable classifies a failed attempt: a request that never reached the
// wire is always safe to resend; one that did is safe exactly when it is
// idempotent — reads, pings, and stats inherently, writes by virtue of
// their dedup token.
func retryable(req *wire.Request, sent bool) bool {
	if !sent {
		return true
	}
	if req.Op == wire.OpInsert || req.Op == wire.OpDelete {
		return req.Token != 0
	}
	return true
}

// call runs one request through the retry loop: attempt, classify, back
// off, re-attempt — up to the retry budget. Context cancellation wins over
// everything; its remaining time rides along as the request's TTL hint so
// the server can skip expired work.
func (c *Client) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	backoff := c.opts.RetryBase
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			ttl := time.Until(dl)
			if ttl <= 0 {
				return nil, context.DeadlineExceeded
			}
			req.TTL = ttl
		}
		resp, sent, err := c.once(ctx, req)
		switch {
		case err == nil && resp.Status == wire.StatusOverloaded:
			// An in-band shed: the server refused before executing, so a
			// backed-off retry is always safe.
			c.ctr.sheds.Inc()
			lastErr = ErrOverloaded
		case err == nil:
			return resp, nil
		default:
			if c.closed.Load() {
				return nil, ErrClosed
			}
			if ctx.Err() != nil {
				return nil, err
			}
			if !retryable(req, sent) {
				return nil, err
			}
			lastErr = err
		}
		if attempt >= c.opts.MaxRetries {
			return nil, lastErr
		}
		c.ctr.retries.Inc()
		// Jittered exponential backoff: uniform in [backoff/2, backoff),
		// so a burst of failing callers decorrelates instead of
		// re-stampeding the server in lockstep.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > c.opts.RetryMax {
			backoff = c.opts.RetryMax
		}
	}
}

// once makes a single attempt: pick a healthy pooled connection (skipping
// and redialing dead slots), send, wait. sent reports whether any attempt
// handed bytes to a socket.
func (c *Client) once(ctx context.Context, req *wire.Request) (*wire.Response, bool, error) {
	start := c.rr.Add(1)
	n := uint64(len(c.slots))
	var lastErr error = ErrClosed
	for i := uint64(0); i < n; i++ {
		sl := c.slots[(start+i)%n]
		cn, err := sl.get(c)
		if err != nil {
			lastErr = err
			continue
		}
		resp, sent, err := cn.call(ctx, req)
		if err == nil {
			return resp, true, nil
		}
		if ctx.Err() != nil {
			return nil, sent, err
		}
		sl.evict(cn)
		if sent {
			// The request reached the wire: whether to re-send is the
			// retry loop's (idempotency-aware) decision, not the pool's.
			return nil, true, err
		}
		lastErr = err // never sent: another pooled connection may be healthy
	}
	return nil, false, lastErr
}

// Query executes q remotely, exactly as Engine.Query would in-process: it
// may reorganize (crack) server-side structures.
func (c *Client) Query(q engine.Query) (engine.Result, engine.Cost, error) {
	return c.QueryContext(context.Background(), q)
}

// QueryContext is Query bounded by ctx: cancellation or deadline expiry
// abandons the call, and the remaining time is sent as a TTL hint the
// server uses to skip already-expired work.
func (c *Client) QueryContext(ctx context.Context, q engine.Query) (engine.Result, engine.Cost, error) {
	t0 := time.Now()
	req := &wire.Request{Op: wire.OpQuery, Query: q}
	traced := c.traceStart(req)
	resp, err := c.call(ctx, req)
	if traced {
		c.finishTrace(req, t0, resp, err)
	}
	if err != nil {
		return engine.Result{}, engine.Cost{}, err
	}
	if resp.Status != wire.StatusOK {
		return engine.Result{}, engine.Cost{}, remoteErr(resp)
	}
	return resp.Result, resp.Cost, nil
}

// QueryRO executes q remotely only if the server can answer it without
// reorganizing; ok reports whether it could (Engine.QueryRO semantics).
func (c *Client) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool, error) {
	return c.QueryROContext(context.Background(), q)
}

// QueryROContext is QueryRO bounded by ctx. With Options.HedgeAfter > 0 and
// a pool of at least two connections, a call unanswered after HedgeAfter
// fires a duplicate on another connection and the first answer wins —
// safe precisely because a read-only query by definition changes nothing.
func (c *Client) QueryROContext(ctx context.Context, q engine.Query) (engine.Result, engine.Cost, bool, error) {
	t0 := time.Now()
	var resp *wire.Response
	var err error
	req := &wire.Request{Op: wire.OpQueryRO, Query: q}
	// A sampled call skips hedging: one trace must describe one
	// request's life, not the interleaving of a race.
	if traced := c.traceStart(req); traced {
		resp, err = c.call(ctx, req)
		c.finishTrace(req, t0, resp, err)
	} else if c.opts.HedgeAfter > 0 && len(c.slots) > 1 {
		resp, err = c.hedged(ctx, q)
	} else {
		resp, err = c.call(ctx, req)
	}
	if err != nil {
		return engine.Result{}, engine.Cost{}, false, err
	}
	return roResult(resp)
}

// traceStart makes the 1-in-N sampling decision for one query, stamping
// the request with a fresh trace ID when sampled. The untraced path is
// one atomic add.
func (c *Client) traceStart(req *wire.Request) bool {
	id, ok := c.sampler.Next()
	if ok {
		req.Trace = id
	}
	return ok
}

// finishTrace assembles the end-to-end trace of a completed sampled call
// and hands it to OnTrace. Server spans arrive anchored at request
// receipt; the client cannot read the server's clock, so the round-trip
// slack (total minus the server-side window) is split evenly between the
// send and recv spans — the classic symmetric-delay assumption. Stage
// starts are monotonic by construction.
func (c *Client) finishTrace(req *wire.Request, t0 time.Time, resp *wire.Response, err error) {
	f := c.opts.OnTrace
	if f == nil {
		return
	}
	total := time.Since(t0)
	tr := obs.Trace{ID: req.Trace, Op: req.Op.String(), Total: total}
	var server []obs.Span
	if resp != nil {
		server = resp.Spans
		tr.Err = resp.Err
	}
	if err != nil {
		tr.Err = err.Error()
	}
	var window time.Duration // server-side span window: max span end
	for _, sp := range server {
		if end := sp.Start + sp.Dur; end > window {
			window = end
		}
	}
	slack := total - window
	if slack < 0 {
		slack = 0
	}
	send := slack / 2
	tr.Spans = make([]obs.Span, 0, len(server)+2)
	tr.Spans = append(tr.Spans, obs.Span{Stage: obs.StageClientSend, Start: 0, Dur: send})
	for _, sp := range server {
		sp.Start += send
		tr.Spans = append(tr.Spans, sp)
	}
	tr.Spans = append(tr.Spans, obs.Span{Stage: obs.StageClientRecv, Start: send + window, Dur: total - send - window})
	f(&tr)
}

// roResult maps a QueryRO response onto the method's return signature.
// The codec only passes statuses it knows, so the default arm fires when
// this client links a wire package newer than itself — protocol skew gets
// a typed error instead of silently reading an empty result.
func roResult(resp *wire.Response) (engine.Result, engine.Cost, bool, error) {
	switch resp.Status {
	case wire.StatusOK:
		return resp.Result, resp.Cost, true, nil
	case wire.StatusRefused:
		return engine.Result{}, engine.Cost{}, false, nil
	case wire.StatusErr, wire.StatusOverloaded:
		return engine.Result{}, engine.Cost{}, false, remoteErr(resp)
	default:
		return engine.Result{}, engine.Cost{}, false, &UnknownStatusError{Op: resp.Op, Status: resp.Status}
	}
}

// hedged races a primary QueryRO against a delayed duplicate. The loser is
// canceled through its context: its pending entry is tombstoned so the
// late answer is dropped, never treated as a protocol violation.
func (c *Client) hedged(ctx context.Context, q engine.Query) (*wire.Response, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // reap the loser
	type hres struct {
		resp  *wire.Response
		err   error
		hedge bool
	}
	out := make(chan hres, 2) // buffered: the loser must never block
	launch := func(hedge bool) {
		go func() {
			resp, err := c.call(hctx, &wire.Request{Op: wire.OpQueryRO, Query: q})
			out <- hres{resp, err, hedge}
		}()
	}
	launch(false)
	timer := time.NewTimer(c.opts.HedgeAfter)
	defer timer.Stop()
	launched := 1
	for {
		select {
		case r := <-out:
			if r.err == nil {
				if r.hedge {
					c.ctr.hedgeWins.Inc()
				}
				return r.resp, nil
			}
			if launched == 2 {
				// One attempt failed; the other decides.
				r2 := <-out
				if r2.err == nil {
					if r2.hedge {
						c.ctr.hedgeWins.Inc()
					}
					return r2.resp, nil
				}
				if !r.hedge {
					return nil, r.err // prefer the primary's error
				}
				return nil, r2.err
			}
			return nil, r.err // primary failed before the hedge fired
		case <-timer.C:
			if launched == 1 {
				c.ctr.hedges.Inc()
				launch(true)
				launched = 2
			}
		}
	}
}

// Insert appends one tuple (relation attribute order) and returns its
// global key, matching Engine.Insert. The request carries an idempotency
// token, so a retry after a lost response cannot apply the write twice.
func (c *Client) Insert(vals ...store.Value) (int, error) {
	return c.InsertContext(context.Background(), vals...)
}

// InsertContext is Insert bounded by ctx.
func (c *Client) InsertContext(ctx context.Context, vals ...store.Value) (int, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpInsert, Token: c.nextToken(), Vals: vals})
	if err != nil {
		return 0, err
	}
	if resp.Status != wire.StatusOK {
		return 0, remoteErr(resp)
	}
	return resp.Key, nil
}

// Delete removes the tuple with the given global key, matching
// Engine.Delete. Tokened and retried exactly like Insert.
func (c *Client) Delete(key int) error {
	return c.DeleteContext(context.Background(), key)
}

// DeleteContext is Delete bounded by ctx.
func (c *Client) DeleteContext(ctx context.Context, key int) error {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpDelete, Token: c.nextToken(), Key: key})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return remoteErr(resp)
	}
	return nil
}

// Stats snapshots the server's serving-layer statistics.
func (c *Client) Stats() (wire.Stats, error) {
	return c.StatsContext(context.Background())
}

// StatsContext is Stats bounded by ctx.
func (c *Client) StatsContext(ctx context.Context) (wire.Stats, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpStats})
	if err != nil {
		return wire.Stats{}, err
	}
	if resp.Status != wire.StatusOK {
		return wire.Stats{}, remoteErr(resp)
	}
	return resp.Stats, nil
}

// Ping round-trips a health probe: a nil return proves the peer is alive
// and answering right now — the fast peer-death check, cheap enough to
// run ahead of a critical call instead of discovering death by timeout.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext is Ping bounded by ctx.
func (c *Client) PingContext(ctx context.Context) error {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpPing})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return remoteErr(resp)
	}
	return nil
}

// UnknownStatusError reports a response whose Status is not one this build
// of the client understands — a server speaking a newer protocol revision.
// It is typed (rather than folded into remoteErr) so callers can tell a
// protocol-skew failure apart from an ordinary remote execution error.
type UnknownStatusError struct {
	Op     wire.Op
	Status wire.Status
}

func (e *UnknownStatusError) Error() string {
	return fmt.Sprintf("client: %v returned unknown status %d (protocol skew?)", e.Op, byte(e.Status))
}

func remoteErr(resp *wire.Response) error {
	if resp.Status == wire.StatusRefused {
		return fmt.Errorf("client: %v refused (would reorganize)", resp.Op)
	}
	return fmt.Errorf("client: remote %v failed: %s", resp.Op, resp.Err)
}

// ---------------------------------------------------------------------------
// Pool slots.

// slot is one pool position: a live connection, or a vacancy being
// re-dialed with backoff. Eviction is per-connection — one dead conn never
// poisons the rest of the pool.
type slot struct {
	mu      sync.Mutex
	cn      *conn
	fails   int       // consecutive dial failures, drives the backoff
	next    time.Time // earliest next dial attempt
	lastErr error
}

// get returns the slot's live connection, dialing a fresh one if the slot
// is vacant and its backoff window has passed.
func (s *slot) get(c *Client) (*conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cn != nil {
		if s.cn.healthy() {
			return s.cn, nil
		}
		s.cn = nil
	}
	if c.closed.Load() {
		return nil, ErrClosed
	}
	now := time.Now()
	if now.Before(s.next) {
		if s.lastErr != nil {
			return nil, s.lastErr
		}
		return nil, errors.New("client: connection backoff")
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		s.fails++
		// 10ms, 20ms, ... capped at 2s: a downed server is probed promptly
		// at first, gently while it stays down.
		d := 10 * time.Millisecond << uint(s.fails-1)
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		s.next = now.Add(d)
		s.lastErr = fmt.Errorf("client: redial %s: %w", c.addr, err)
		return nil, s.lastErr
	}
	s.fails = 0
	s.lastErr = nil
	s.cn = newConn(nc, c.opts.MaxFrame)
	c.ctr.redials.Inc()
	return s.cn, nil
}

// close shuts the slot's connection down, if it has one.
func (s *slot) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cn != nil {
		s.cn.shutdown(ErrClosed)
		s.cn = nil
	}
}

// evict drops a dead connection from its slot (the next get re-dials
// immediately; dial backoff only applies to failed dials).
func (s *slot) evict(cn *conn) {
	s.mu.Lock()
	if s.cn == cn {
		s.cn = nil
	}
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// One pooled connection.

// result pairs a routed response with a connection-level failure.
type result struct {
	resp *wire.Response
	err  error
}

type conn struct {
	nc       net.Conn
	maxFrame int

	sendq chan *outFrame // encoded request frames, callers -> writer
	dead  chan struct{}  // closed by shutdown; unblocks writer and senders

	mu     sync.Mutex
	nextID uint64
	// pending maps request ID -> waiter. A nil channel is a tombstone: the
	// caller abandoned the request (context cancellation, hedge loss) and
	// the eventual response must be dropped, not treated as unknown.
	pending map[uint64]chan result
	err     error // sticky: set once the connection is unusable
}

// outFrame is one queued request frame. wrote records whether the writer
// actually handed it to the socket: a failed call whose frame was never
// written is provably safe to retry on another pooled connection, while
// "merely enqueued" is not proof either way once the writer has started
// draining.
type outFrame struct {
	buf   []byte
	wrote atomic.Bool
}

// outFramePool recycles request frames. A frame is returned only after its
// call received a successful response — which proves the writer finished
// with the buffer — so steady-state calls allocate no fresh frame. Frames
// of failed or abandoned calls are dropped: the writer may still hold them;
// so are frames grown past wire.MaxPooledBuf.
var outFramePool = sync.Pool{
	New: func() any { return new(outFrame) },
}

func newConn(nc net.Conn, maxFrame int) *conn {
	cn := &conn{
		nc:       nc,
		maxFrame: maxFrame,
		sendq:    make(chan *outFrame, 64),
		dead:     make(chan struct{}),
		pending:  make(map[uint64]chan result),
	}
	go cn.readLoop()
	go cn.writeLoop()
	return cn
}

// healthy reports whether the connection is still usable.
func (cn *conn) healthy() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err == nil
}

// resultChPool recycles per-call waiter channels. Every registered channel
// sees at most one send (a routed response or the shutdown error —
// pending-map removal makes the two mutually exclusive) and every return
// path below either consumed that send or proved it can never happen
// (forget), so a pooled channel is always empty.
var resultChPool = sync.Pool{
	New: func() any { return make(chan result, 1) },
}

// call registers a waiter, enqueues the request frame, and blocks for the
// matched response or context expiry. Many goroutines may be inside call
// on the same connection at once — that is the pipelining; the writer
// goroutine coalesces their frames into few syscalls. sent reports whether
// the writer handed any of the request to the socket: a failure with
// sent == false is safe to retry on another connection.
func (cn *conn) call(ctx context.Context, req *wire.Request) (resp *wire.Response, sent bool, err error) {
	ch := resultChPool.Get().(chan result)
	defer resultChPool.Put(ch)
	id, err := cn.register(ch)
	if err != nil {
		return nil, false, err
	}
	req.ID = id

	f := outFramePool.Get().(*outFrame)
	f.buf = wire.AppendRequest(f.buf[:0], req)
	f.wrote.Store(false)
	select {
	case <-cn.dead:
		// Shutdown already failed every pending waiter, including ours;
		// receive below so the accounting stays in one place. Checking
		// dead first keeps a frame off the queue of a dying connection
		// whenever the death is already observable.
	default:
		select {
		case cn.sendq <- f:
		case <-cn.dead:
		case <-ctx.Done():
			// Never enqueued; the forget below cleanly unregisters.
		}
	}
	var res result
	select {
	case res = <-ch:
	case <-ctx.Done():
		if cn.forget(id) {
			// Tombstoned: no response will ever be delivered to ch.
			return nil, f.wrote.Load(), ctx.Err()
		}
		// The response (or shutdown) raced our cancellation; its send is
		// already in flight to the buffered channel.
		res = <-ch
	}
	sent = f.wrote.Load()
	if res.err == nil && cap(f.buf) <= wire.MaxPooledBuf {
		// A response arrived, so the frame was fully written long ago;
		// the writer no longer references it.
		outFramePool.Put(f)
	}
	return res.resp, sent, res.err
}

// register files ch as the waiter of a fresh request ID, unless the
// connection has failed.
func (cn *conn) register(ch chan result) (uint64, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return 0, cn.err
	}
	cn.nextID++ // IDs start at 1: ID 0 is the server's conn-level error channel
	cn.pending[cn.nextID] = ch
	return cn.nextID, nil
}

// take removes and returns the waiter registered under id.
func (cn *conn) take(id uint64) (chan result, bool) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	ch, ok := cn.pending[id]
	delete(cn.pending, id)
	return ch, ok
}

// forget tombstones a pending request whose caller gave up, so the reader
// drops the eventual late response instead of killing the connection over
// it. Reports whether the request was still pending — true guarantees no
// send to the waiter channel will ever happen.
func (cn *conn) forget(id uint64) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	ch, ok := cn.pending[id]
	if !ok || ch == nil {
		return false
	}
	cn.pending[id] = nil
	return true
}

// writeLoop batches queued request frames onto the socket: one write per
// drain of the queue, flushed when it momentarily empties — concurrent
// callers pipelining through the same connection share syscalls instead of
// paying one each. Frames still queued when the connection dies are never
// marked written, so their callers may fail over to another connection.
func (cn *conn) writeLoop() {
	bw := bufio.NewWriterSize(cn.nc, 64<<10)
	for {
		select {
		case f := <-cn.sendq:
			f.wrote.Store(true) // before Write: buffered bytes may reach the wire later
			if _, err := bw.Write(f.buf); err != nil {
				cn.shutdown(fmt.Errorf("client: write: %w", err))
				return
			}
			if len(cn.sendq) == 0 {
				if err := bw.Flush(); err != nil {
					cn.shutdown(fmt.Errorf("client: write: %w", err))
					return
				}
			}
		case <-cn.dead:
			return
		}
	}
}

// readLoop routes responses to their waiters until the connection dies,
// then fails everything still pending.
func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.nc, 64<<10)
	var buf []byte // every response payload is read here; valid until the next read
	for {
		payload, err := wire.ReadFrame(br, cn.maxFrame, buf)
		if err != nil {
			cn.shutdown(fmt.Errorf("client: read: %w", err))
			return
		}
		buf = wire.NextReadBuf(payload)
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			cn.shutdown(fmt.Errorf("client: protocol: %w", err))
			return
		}
		if resp.ID == 0 {
			// Connection-level server error (e.g. an oversized frame we
			// sent): no specific waiter, the connection is done for.
			cn.shutdown(fmt.Errorf("client: server: %s", resp.Err))
			return
		}
		ch, ok := cn.take(resp.ID)
		if !ok {
			cn.shutdown(fmt.Errorf("client: protocol: response for unknown request %d", resp.ID))
			return
		}
		if ch == nil {
			continue // abandoned request (hedge loser / canceled ctx): drop
		}
		r := resp
		ch <- result{resp: &r}
	}
}

// shutdown marks the connection failed, closes the socket, and fails every
// pending waiter. First error wins; later calls are no-ops.
func (cn *conn) shutdown(err error) {
	waiters, first := cn.fail(err)
	if !first {
		return
	}
	close(cn.dead) // stops the writer; unblocks senders
	cn.nc.Close()  // unblocks the reader, which re-enters shutdown harmlessly
	for _, ch := range waiters {
		if ch != nil { // skip tombstones: nobody is waiting
			ch <- result{err: err}
		}
	}
}

// fail records err as the connection's failure and takes its pending
// waiters; first is false when the connection had already failed.
func (cn *conn) fail(err error) (waiters map[uint64]chan result, first bool) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return nil, false
	}
	cn.err = err
	waiters = cn.pending
	cn.pending = make(map[uint64]chan result)
	return waiters, true
}
