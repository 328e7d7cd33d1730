package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
	"crackstore/internal/wire"
)

func TestDialFailure(t *testing.T) {
	// A listener we immediately close: dialing it must fail cleanly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr, Options{DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("Dial to a closed port succeeded")
	}
}

func TestCallsAfterClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accept and hold, so Dial succeeds
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	c, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.Close()
	if _, _, err := c.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 2)}},
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Insert(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}

// miniServer is a minimal in-test wire peer: it answers every decodable
// request with a canned StatusOK response, so client-side pool and retry
// machinery can be exercised with full control over connection lifetimes.
type miniServer struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn

	// severNext makes the next request read off any connection kill that
	// connection instead of being answered: the peer dies with the call in
	// flight. One-shot, so the redialed connection is served normally.
	severNext atomic.Bool
}

func startMiniServer(t *testing.T) *miniServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := &miniServer{t: t, ln: ln}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			m.mu.Lock()
			m.conns = append(m.conns, nc)
			m.mu.Unlock()
			go m.serve(nc)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		m.closeAll()
	})
	return m
}

func (m *miniServer) serve(nc net.Conn) {
	br := bufio.NewReader(nc)
	for {
		payload, err := wire.ReadFrame(br, 0, nil)
		if err != nil || m.severNext.CompareAndSwap(true, false) {
			nc.Close()
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			nc.Close()
			return
		}
		resp := wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
		switch req.Op {
		case wire.OpQuery, wire.OpQueryRO:
			resp.Result = engine.Result{N: 1, Cols: map[string][]store.Value{"B": {42}}}
		case wire.OpInsert:
			resp.Key = 7
		case wire.OpDelete, wire.OpPing, wire.OpStats:
		default:
			resp.Status = wire.StatusErr
			resp.Err = "miniServer: unknown op"
		}
		if _, err := nc.Write(wire.AppendResponse(nil, &resp)); err != nil {
			nc.Close()
			return
		}
	}
}

// closeAll severs every accepted connection (peer death, client view).
func (m *miniServer) closeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, nc := range m.conns {
		nc.Close()
	}
	m.conns = nil
}

var testQuery = engine.Query{
	Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 2)}},
}

// TestPeerDeathRetriesAndRedials: a peer that dies mid-call no longer
// fails the pool permanently — the idempotent call is retried over a
// redialed connection and succeeds, and the counters show the machinery
// fired.
func TestPeerDeathRetriesAndRedials(t *testing.T) {
	m := startMiniServer(t)
	c, err := Dial(m.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if _, _, err := c.Query(testQuery); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}
	m.closeAll() // peer dies between calls; next call hits a dead conn

	if _, _, err := c.Query(testQuery); err != nil {
		t.Fatalf("query after peer death failed despite retries: %v", err)
	}
	ctr := c.Counters()
	if ctr.Redials == 0 {
		t.Fatalf("no redial recorded after peer death: %+v", ctr)
	}
}

// TestOneConnResetDoesNotPoisonPool: with a pool of two, killing every
// current connection must not fail future calls — each slot evicts its
// dead conn and redials independently.
func TestOneConnResetDoesNotPoisonPool(t *testing.T) {
	m := startMiniServer(t)
	c, err := Dial(m.ln.Addr().String(), Options{Conns: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	for i := 0; i < 4; i++ {
		if _, _, err := c.Query(testQuery); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	m.closeAll()
	// Every subsequent call must succeed; round-robin touches both slots.
	for i := 0; i < 8; i++ {
		if _, _, err := c.Query(testQuery); err != nil {
			t.Fatalf("query %d after conn resets: %v", i, err)
		}
	}
	if ctr := c.Counters(); ctr.Redials < 1 {
		t.Fatalf("expected redials after resets, got %+v", ctr)
	}
}

// TestRetryDisabledFailsFast: with MaxRetries < 0 the call in flight when
// its connection dies fails without a retry — but a later call still
// succeeds, because the pool itself always heals by redialing. The server
// holds the request across the sever (it reads the frame, then closes), so
// the failing call is in flight by construction; a call issued after the
// reader goroutine has already evicted a dead conn redials and succeeds,
// which is the pool healing, not a retry.
func TestRetryDisabledFailsFast(t *testing.T) {
	m := startMiniServer(t)
	c, err := Dial(m.ln.Addr().String(), Options{MaxRetries: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if _, _, err := c.Query(testQuery); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}
	m.severNext.Store(true)
	if _, _, err := c.Query(testQuery); err == nil {
		t.Fatal("retry-disabled call whose conn died in flight succeeded")
	}
	// The dead conn was evicted; the pool heals for the next call.
	if _, _, err := c.Query(testQuery); err != nil {
		t.Fatalf("pool did not heal after fail-fast error: %v", err)
	}
	if ctr := c.Counters(); ctr.Retries != 0 {
		t.Fatalf("retries fired despite MaxRetries=-1: %+v", ctr)
	}
}

// slowServer answers every query after a fixed delay; stallFirstRO makes
// the first accepted connection swallow QueryRO requests entirely.
func slowServer(t *testing.T, delay time.Duration, stallFirstRO bool) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	acceptN := 0
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			acceptN++
			stall := stallFirstRO && acceptN == 1
			mu.Unlock()
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					payload, err := wire.ReadFrame(br, 0, nil)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(payload)
					if err != nil {
						return
					}
					if stall && req.Op == wire.OpQueryRO {
						continue // swallow: the hedge must rescue the call
					}
					if delay > 0 {
						time.Sleep(delay)
					}
					resp := wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK,
						Result: engine.Result{N: 1, Cols: map[string][]store.Value{"B": {1}}}}
					if _, err := nc.Write(wire.AppendResponse(nil, &resp)); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestContextCancellationAbandonsCall: a canceled context unblocks the
// caller immediately, and the late response for the abandoned request is
// dropped without killing the connection.
func TestContextCancellationAbandonsCall(t *testing.T) {
	ln := slowServer(t, 100*time.Millisecond, false)
	c, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, err = c.QueryContext(ctx, testQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled call returned %v, want DeadlineExceeded", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("cancellation took %v, want prompt return", d)
	}
	// The straggling response for the abandoned ID must not poison the
	// conn: the next (uncanceled) call on the same connection succeeds.
	if _, _, err := c.Query(testQuery); err != nil {
		t.Fatalf("call after abandoned request failed: %v", err)
	}
}

// TestHedgedReadWins: with HedgeAfter set and one conn's read-only answers
// swallowed, the hedge fires on the other conn and every call completes.
func TestHedgedReadWins(t *testing.T) {
	ln := slowServer(t, 0, true)
	c, err := Dial(ln.Addr().String(), Options{Conns: 2, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			if _, _, ok, err := c.QueryRO(testQuery); err != nil || !ok {
				t.Errorf("hedged QueryRO %d: ok=%v err=%v", i, ok, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hedged reads hung — hedge did not rescue the stalled conn")
	}
	if ctr := c.Counters(); ctr.Hedges == 0 {
		t.Fatalf("no hedge fired against a stalled conn: %+v", ctr)
	}
}

// TestNoHedgeByDefault: with HedgeAfter 0 no hedge fires, so a read-only
// call that lands on the stalled conn runs until its context expires.
func TestNoHedgeByDefault(t *testing.T) {
	ln := slowServer(t, 0, true)
	c, err := Dial(ln.Addr().String(), Options{Conns: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	stalled := 0
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, _, _, err := c.QueryROContext(ctx, testQuery)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			stalled++
		} else if err != nil {
			t.Fatalf("QueryRO %d: %v", i, err)
		}
	}
	if stalled == 0 {
		t.Fatal("no call reached the stalled conn")
	}
	if ctr := c.Counters(); ctr.Hedges != 0 {
		t.Fatalf("HedgeAfter 0 fired %d hedges", ctr.Hedges)
	}
}

// TestPing: the health probe round-trips against a live peer and fails
// promptly against a dead one.
func TestPing(t *testing.T) {
	m := startMiniServer(t)
	c, err := Dial(m.ln.Addr().String(), Options{MaxRetries: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping against live server: %v", err)
	}
	m.ln.Close()
	m.closeAll()
	if err := c.Ping(); err == nil {
		t.Fatal("Ping against dead server succeeded")
	}
}

// TestUnknownStatusIsTyped: a response status this client build does not
// know (protocol skew: a newer server enum) surfaces as a typed
// *UnknownStatusError, distinguishable from ordinary remote failures.
func TestUnknownStatusIsTyped(t *testing.T) {
	resp := &wire.Response{Op: wire.OpQueryRO, Status: wire.Status(99)}
	_, _, ok, err := roResult(resp)
	if ok {
		t.Fatal("unknown status reported ok=true")
	}
	var use *UnknownStatusError
	if !errors.As(err, &use) {
		t.Fatalf("err = %v (%T), want *UnknownStatusError", err, err)
	}
	if use.Op != wire.OpQueryRO || use.Status != wire.Status(99) {
		t.Fatalf("UnknownStatusError fields = %+v", use)
	}
	// The known statuses must not be misclassified as skew.
	for _, st := range []wire.Status{wire.StatusOK, wire.StatusRefused, wire.StatusErr, wire.StatusOverloaded} {
		_, _, _, err := roResult(&wire.Response{Op: wire.OpQueryRO, Status: st})
		if errors.As(err, &use) {
			t.Fatalf("status %d misreported as unknown", byte(st))
		}
	}
}
