package netserve

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/serve"
	"crackstore/internal/store"
	"crackstore/internal/wire"
)

func buildRel(seed int64, n int, domain int64) *store.Relation {
	rng := rand.New(rand.NewSource(seed))
	return store.Build("R", n, []string{"A", "B", "C"}, func(string, int) store.Value {
		return 1 + rng.Int63n(domain)
	})
}

func startServer(t *testing.T, e engine.Engine, opts Options) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", e, opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(s.Addr().String(), opts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndQueryInsertDeleteStats(t *testing.T) {
	rel := buildRel(1, 2000, 500)
	s := startServer(t, engine.New(engine.Sideways, rel), Options{})
	c := dial(t, s, client.Options{})

	q := engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(100, 140)}},
		Projs: []string{"B"},
	}
	res, _, err := c.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.N == 0 || len(res.Cols["B"]) != res.N {
		t.Fatalf("implausible result: %+v", res)
	}

	// Insert a tuple that matches the range, requery, count grows by one.
	key, err := c.Insert(120, 7, 7)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if key != 2000 {
		t.Fatalf("Insert key = %d, want 2000 (append order)", key)
	}
	res2, _, err := c.Query(q)
	if err != nil {
		t.Fatalf("Query after insert: %v", err)
	}
	if res2.N != res.N+1 {
		t.Fatalf("after insert N = %d, want %d", res2.N, res.N+1)
	}

	// Delete it again.
	if err := c.Delete(key); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	res3, _, err := c.Query(q)
	if err != nil {
		t.Fatalf("Query after delete: %v", err)
	}
	if res3.N != res.N {
		t.Fatalf("after delete N = %d, want %d", res3.N, res.N)
	}

	// QueryRO on the now-cracked range must succeed read-only...
	if _, _, ok, err := c.QueryRO(q); err != nil || !ok {
		t.Fatalf("QueryRO warm: ok=%v err=%v", ok, err)
	}
	// ...and be refused on a cold one.
	cold := engine.Query{
		Preds: []engine.AttrPred{{Attr: "C", Pred: store.Range(1, 3)}},
		Projs: []string{"A"},
	}
	if _, _, ok, err := c.QueryRO(cold); err != nil || ok {
		t.Fatalf("QueryRO cold: ok=%v err=%v, want refused", ok, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Queries < 3 {
		t.Fatalf("server stats report %d queries, want >= 3", st.Queries)
	}
	if st.Errors != 0 {
		t.Fatalf("server stats report %d errors, want 0", st.Errors)
	}
}

// TestPipelinedConcurrentClients hammers one server from many goroutines
// over a small conn pool; every answer must match the direct count.
func TestPipelinedConcurrentClients(t *testing.T) {
	rel := buildRel(2, 4000, 600)
	wantCount := func(p store.Pred) int {
		return store.SelectCount(rel.MustColumn("A"), p)
	}
	preds := make([]store.Pred, 24)
	want := make([]int, len(preds))
	rng := rand.New(rand.NewSource(3))
	for i := range preds {
		lo := 1 + rng.Int63n(520)
		preds[i] = store.Range(lo, lo+50)
		want[i] = wantCount(preds[i])
	}

	s := startServer(t, engine.New(engine.Sideways, rel), Options{
		Serve: serve.Options{Workers: 4},
	})
	c := dial(t, s, client.Options{Conns: 2})

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				j := r.Intn(len(preds))
				res, _, err := c.Query(engine.Query{
					Preds: []engine.AttrPred{{Attr: "A", Pred: preds[j]}},
					Projs: []string{"B"},
				})
				if err != nil {
					errs <- err.Error()
					return
				}
				if res.N != want[j] || len(res.Cols["B"]) != want[j] {
					errs <- "wrong result"
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := s.Stats()
	if st.Queries != 8*50 {
		t.Fatalf("server recorded %d queries, want %d", st.Queries, 8*50)
	}
	if st.Errors != 0 {
		t.Fatalf("server recorded %d errors, want 0", st.Errors)
	}
}

// rawConn is a minimal hand-rolled protocol peer for malformed-input tests.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func rawDial(t *testing.T, s *Server) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) write(frame []byte) {
	r.t.Helper()
	if _, err := r.nc.Write(frame); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

func (r *rawConn) read() wire.Response {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := wire.ReadFrame(r.nc, 0, nil)
	if err != nil {
		r.t.Fatalf("raw read: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		r.t.Fatalf("raw decode: %v", err)
	}
	return resp
}

// TestCorruptPayloadAnsweredInBand: a payload whose header decodes but whose
// body is garbage draws a StatusErr for that ID and the connection keeps
// working.
func TestCorruptPayloadAnsweredInBand(t *testing.T) {
	s := startServer(t, engine.New(engine.Sideways, buildRel(4, 500, 100)), Options{})
	r := rawDial(t, s)

	// Op byte + ID uvarint + garbage body.
	payload := []byte{byte(wire.OpQuery)}
	payload = binary.AppendUvarint(payload, 42)
	payload = append(payload, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	r.write(wire.AppendFrame(nil, payload))
	resp := r.read()
	if resp.ID != 42 || resp.Status != wire.StatusErr {
		t.Fatalf("corrupt payload answered %+v, want StatusErr for ID 42", resp)
	}

	// The connection must still serve a valid request afterwards.
	req := wire.Request{ID: 43, Op: wire.OpQuery, Query: engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 50)}},
		Projs: []string{"B"},
	}}
	r.write(wire.AppendRequest(nil, &req))
	resp = r.read()
	if resp.ID != 43 || resp.Status != wire.StatusOK {
		t.Fatalf("valid request after corrupt one answered %+v", resp)
	}
}

// TestOversizedFrameRejected: a frame above the server's cap draws an
// ID-0 error, the connection closes, and the server keeps accepting.
func TestOversizedFrameRejected(t *testing.T) {
	s := startServer(t, engine.New(engine.Sideways, buildRel(5, 500, 100)), Options{MaxFrame: 1 << 16})
	r := rawDial(t, s)

	// A well-formed header announcing 16 MiB (echo intact, so the length
	// itself is trusted and the size cap is what rejects it).
	hdr := wire.AppendFrame(nil, make([]byte, 1<<24))[:wire.FrameHeader]
	r.write(hdr)
	resp := r.read()
	if resp.ID != 0 || resp.Status != wire.StatusErr || !strings.Contains(resp.Err, "maximum size") {
		t.Fatalf("oversized frame answered %+v", resp)
	}
	// The server hangs up on this connection (framing is unrecoverable)...
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(r.nc, 0, nil); err != io.EOF {
		t.Fatalf("after oversize want clean EOF, got %v", err)
	}
	// ...but the process survives and accepts fresh connections.
	c := dial(t, s, client.Options{})
	if _, _, err := c.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 50)}},
	}); err != nil {
		t.Fatalf("server unusable after oversized frame: %v", err)
	}
}

// TestNotOurProtocol: a peer writing non-protocol bytes (an HTTP request)
// is disconnected without taking the server down.
func TestNotOurProtocol(t *testing.T) {
	s := startServer(t, engine.New(engine.Sideways, buildRel(6, 500, 100)), Options{MaxFrame: 1 << 16})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	// "GET " parses as a huge length prefix -> oversize error + close.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, _ := io.ReadAll(nc)
	_ = buf // any bytes (error frame) or none; the point is the server survives
	c := dial(t, s, client.Options{})
	if _, _, err := c.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 50)}},
	}); err != nil {
		t.Fatalf("server unusable after junk peer: %v", err)
	}
}

// TestInsertArityPanicIsAnError: an insert with the wrong tuple arity
// panics inside the engine; the server must convert it to an error
// response and keep the connection alive.
func TestInsertArityPanicIsAnError(t *testing.T) {
	s := startServer(t, engine.New(engine.Sideways, buildRel(7, 500, 100)), Options{})
	c := dial(t, s, client.Options{})
	if _, err := c.Insert(1); err == nil { // relation has 3 attributes
		t.Fatal("wrong-arity insert did not error")
	}
	if _, err := c.Insert(1, 2, 3); err != nil {
		t.Fatalf("connection unusable after panicking insert: %v", err)
	}
}

// TestOversizedResponseBecomesInBandError: a result too wide for the
// frame cap is converted to an error for that one request instead of
// being shipped and killing the peer's connection.
func TestOversizedResponseBecomesInBandError(t *testing.T) {
	rel := buildRel(12, 4000, 1000)
	s := startServer(t, engine.New(engine.Sideways, rel), Options{MaxFrame: 1 << 12})
	c := dial(t, s, client.Options{})

	// Every row qualifies: the response would be ~8x the cap.
	_, _, err := c.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 1001)}},
		Projs: []string{"B"},
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized result: want in-band frame-limit error, got %v", err)
	}
	// The connection survives for reasonably sized queries.
	res, _, err := c.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Point(3)}},
		Projs: []string{"B"},
	})
	if err != nil {
		t.Fatalf("connection dead after oversized result: %v", err)
	}
	if res.N == 0 {
		t.Fatal("narrow query returned nothing")
	}
}

// TestGracefulClose: Close under load answers or cleanly fails every
// in-flight call, returns, and leaves the client with conn errors only.
func TestGracefulClose(t *testing.T) {
	rel := buildRel(8, 2000, 300)
	s := startServer(t, engine.New(engine.Sideways, rel), Options{
		Serve: serve.Options{Workers: 2},
	})
	c := dial(t, s, client.Options{Conns: 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan string, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := 1 + r.Int63n(250)
				res, _, err := c.Query(engine.Query{
					Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+20)}},
					Projs: []string{"B"},
				})
				if err != nil {
					return // conn failed during Close: expected
				}
				if res.N != store.SelectCount(rel.MustColumn("A"), store.Range(lo, lo+20)) {
					bad <- "wrong result during shutdown"
					return
				}
			}
		}(int64(g))
	}
	time.Sleep(50 * time.Millisecond) // let traffic flow
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain within 10s")
	}
	close(stop)
	wg.Wait()
	close(bad)
	for e := range bad {
		t.Fatal(e)
	}
}

// TestServeTimeoutOverWire: a server-side per-query deadline surfaces to
// the remote client as an error response long before the slow execution
// finishes, and the timeout is counted in the server's stats.
func TestServeTimeoutOverWire(t *testing.T) {
	g := &stallEngine{gate: make(chan struct{})}
	time.AfterFunc(600*time.Millisecond, func() { close(g.gate) })
	s := startServer(t, g, Options{
		Serve: serve.Options{Workers: 1, Timeout: 30 * time.Millisecond},
	})
	c := dial(t, s, client.Options{})
	t0 := time.Now()
	_, _, err := c.Query(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 1000)}},
		Projs: []string{"B"},
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want remote deadline error, got %v", err)
	}
	if took := time.Since(t0); took >= 600*time.Millisecond {
		t.Fatalf("timeout response took %v — waited out the full execution", took)
	}
	st := s.Stats()
	if st.Errors == 0 {
		t.Fatalf("timeout not counted in server stats: %+v", st)
	}
}

// TestDispatchUnknownOp: an op byte the server does not implement must get
// a StatusErr response naming the op, not a hang or a mis-framed answer.
func TestDispatchUnknownOp(t *testing.T) {
	s := startServer(t, engine.New(engine.Sideways, buildRel(99, 100, 100)), Options{})
	resp := s.dispatch(&wire.Request{ID: 1, Op: wire.Op(99)}, time.Now())
	if resp.Status != wire.StatusErr {
		t.Fatalf("unknown op status = %d, want StatusErr", byte(resp.Status))
	}
	if !strings.Contains(resp.Err, "unknown op") {
		t.Fatalf("unknown op error %q does not name the problem", resp.Err)
	}
	if resp.ID != 1 {
		t.Fatalf("response ID = %d, want 1 (caller must be able to correlate)", resp.ID)
	}
}
