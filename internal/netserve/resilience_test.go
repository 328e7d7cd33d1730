package netserve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/store"
	"crackstore/internal/wire"
)

// stallEngine blocks every Query until its gate opens — the remote-layer
// stand-in for an engine busy on a slow crack. Kind Scan keeps the
// inline-RO fast path off, so every request takes the dispatch path and
// the in-flight accounting is deterministic.
type stallEngine struct {
	gate  chan struct{}
	calls atomic.Int64
}

func (g *stallEngine) Kind() engine.Kind { return engine.Scan }
func (g *stallEngine) Query(q engine.Query) (engine.Result, engine.Cost) {
	g.calls.Add(1)
	<-g.gate
	return engine.Result{N: 1, Cols: map[string][]store.Value{"B": {1}}}, engine.Cost{}
}
func (g *stallEngine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	return engine.Result{}, engine.Cost{}, false
}
func (g *stallEngine) Insert(vals ...store.Value) int { return 0 }
func (g *stallEngine) Delete(key int)                 {}
func (g *stallEngine) Storage() int                   { return 0 }

var stallQuery = engine.Query{
	Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(0, 10)}},
	Projs: []string{"B"},
}

// TestPingAnsweredOnReader: Ping round-trips StatusOK, including while the
// whole pool is wedged behind a stalled query — the fast peer-death probe
// must never queue behind work.
func TestPingAnsweredOnReader(t *testing.T) {
	g := &stallEngine{gate: make(chan struct{})}
	s := startServer(t, g, Options{Serve: serve.Options{Workers: 1}})
	r := rawDial(t, s)

	// Wedge the only worker.
	r.write(wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpQuery, Query: stallQuery}))
	time.Sleep(20 * time.Millisecond)

	r.write(wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpPing}))
	resp := r.read()
	if resp.ID != 2 || resp.Op != wire.OpPing || resp.Status != wire.StatusOK {
		t.Fatalf("ping under load answered %+v", resp)
	}
	close(g.gate)
	if resp := r.read(); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("stalled query answered %+v after gate opened", resp)
	}
}

// TestGlobalInflightSheds: with MaxInflight=2 occupied by stalled queries,
// the next request draws StatusOverloaded in-band — the connection stays
// open and serves the backlog once capacity frees up.
func TestGlobalInflightSheds(t *testing.T) {
	g := &stallEngine{gate: make(chan struct{})}
	s := startServer(t, g, Options{
		Serve:       serve.Options{Workers: 2},
		MaxInflight: 2,
	})
	r := rawDial(t, s)

	for id := uint64(1); id <= 2; id++ {
		r.write(wire.AppendRequest(nil, &wire.Request{ID: id, Op: wire.OpQuery, Query: stallQuery}))
	}
	time.Sleep(20 * time.Millisecond)
	r.write(wire.AppendRequest(nil, &wire.Request{ID: 3, Op: wire.OpQuery, Query: stallQuery}))

	resp := r.read()
	if resp.ID != 3 || resp.Status != wire.StatusOverloaded {
		t.Fatalf("over-cap request answered %+v, want StatusOverloaded for ID 3", resp)
	}

	close(g.gate)
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		resp := r.read()
		if resp.Status != wire.StatusOK {
			t.Fatalf("stalled query answered %+v", resp)
		}
		seen[resp.ID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("missing answers, saw %v", seen)
	}
	// Stats reads the engine's report under the guard's read lock, so it is
	// asked once the stalled writers are gone.
	if st := s.Stats(); st.Sheds != 1 {
		t.Fatalf("Stats.Sheds = %d, want 1", st.Sheds)
	}
}

// TestServeWatermarkShedsOverWire: the serve-layer MaxWaiting watermark
// also surfaces as StatusOverloaded (not StatusErr) at the wire.
func TestServeWatermarkShedsOverWire(t *testing.T) {
	g := &stallEngine{gate: make(chan struct{})}
	s := startServer(t, g, Options{
		Serve: serve.Options{Workers: 1, MaxWaiting: 1},
	})
	r := rawDial(t, s)

	// ID 1 executes, ID 2 waits (at the watermark), ID 3 is shed.
	r.write(wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpQuery, Query: stallQuery}))
	time.Sleep(20 * time.Millisecond)
	r.write(wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpQuery, Query: stallQuery}))
	time.Sleep(20 * time.Millisecond)
	r.write(wire.AppendRequest(nil, &wire.Request{ID: 3, Op: wire.OpQuery, Query: stallQuery}))

	resp := r.read()
	if resp.ID != 3 || resp.Status != wire.StatusOverloaded {
		t.Fatalf("watermark shed answered %+v, want StatusOverloaded for ID 3", resp)
	}
	close(g.gate)
	for i := 0; i < 2; i++ {
		if resp := r.read(); resp.Status != wire.StatusOK {
			t.Fatalf("backlogged query answered %+v", resp)
		}
	}
}

// TestReadOnlyRequestNeverReorganizes: an OpQueryRO request executes
// Engine.QueryRO and nothing else. When the engine refuses, the answer is
// StatusRefused and Engine.Query has not run — traced or not, and whether a
// slot was free or the request had to queue for one (the paths that used to
// ask the engine first and then call Query on a stale answer).
func TestReadOnlyRequestNeverReorganizes(t *testing.T) {
	g := &stallEngine{gate: make(chan struct{})}
	reg := obs.NewRegistry()
	s := startServer(t, g, Options{Serve: serve.Options{Workers: 1}, Metrics: reg})
	refused := func(id, trace uint64) {
		t.Helper()
		resp := s.dispatch(&wire.Request{ID: id, Op: wire.OpQueryRO, Trace: trace, Query: stallQuery}, time.Now())
		if resp.Status != wire.StatusRefused || resp.ID != id {
			t.Errorf("read-only request (trace=%d) answered %+v, want StatusRefused", trace, resp)
		}
	}
	refused(1, 0)
	refused(2, 7)
	if n := g.calls.Load(); n != 0 {
		t.Fatalf("read-only requests reached Engine.Query %d times", n)
	}

	// Wedge the only slot behind a full query, queue both shapes behind it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.dispatch(&wire.Request{ID: 3, Op: wire.OpQuery, Query: stallQuery}, time.Now())
	}()
	for g.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for id, trace := range map[uint64]uint64{4: 0, 5: 7} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refused(id, trace)
		}()
	}
	for text := new(strings.Builder); !strings.Contains(text.String(), "\ncrack_serve_waiting 2\n"); reg.WritePrometheus(text) {
		time.Sleep(time.Millisecond) // until both have reached the semaphore
		text.Reset()
	}
	close(g.gate)
	wg.Wait()
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("Engine.Query ran %d times, want 1 (the wedging query alone)", n)
	}
	if st := s.Stats(); st.Queries != 1 || st.Errors != 0 {
		t.Fatalf("a refusal is neither a success nor an error: %+v", st)
	}
}

// TestDedupReplaysWrite: re-sending a tokened Insert — even from a
// different connection, as a pooled client's retry would — applies the
// write once and replays the recorded response under the retry's ID.
func TestDedupReplaysWrite(t *testing.T) {
	rel := buildRel(11, 1000, 300)
	s := startServer(t, engine.New(engine.Sideways, rel), Options{})
	r1 := rawDial(t, s)
	r2 := rawDial(t, s)

	q := engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Point(7777)}},
		Projs: []string{"B"},
	}
	count := func(r *rawConn, id uint64) int {
		r.t.Helper()
		r.write(wire.AppendRequest(nil, &wire.Request{ID: id, Op: wire.OpQuery, Query: q}))
		resp := r.read()
		if resp.Status != wire.StatusOK {
			r.t.Fatalf("count query answered %+v", resp)
		}
		return resp.Result.N
	}
	if n := count(r1, 1); n != 0 {
		t.Fatalf("sentinel value already present: %d", n)
	}

	ins := wire.Request{ID: 2, Op: wire.OpInsert, Token: 0xFEED, Vals: []store.Value{7777, 1, 1}}
	r1.write(wire.AppendRequest(nil, &ins))
	first := r1.read()
	if first.Status != wire.StatusOK {
		t.Fatalf("insert answered %+v", first)
	}

	// The "response was lost, retry on another conn" path.
	ins.ID = 9
	r2.write(wire.AppendRequest(nil, &ins))
	replay := r2.read()
	if replay.Status != wire.StatusOK || replay.ID != 9 {
		t.Fatalf("replayed insert answered %+v, want OK under ID 9", replay)
	}
	if replay.Key != first.Key {
		t.Fatalf("replay returned key %d, original %d — write applied twice?", replay.Key, first.Key)
	}
	if n := count(r1, 3); n != 1 {
		t.Fatalf("after insert + retry the value appears %d times, want exactly 1", n)
	}

	// Tokened delete retries are deduplicated the same way.
	del := wire.Request{ID: 4, Op: wire.OpDelete, Token: 0xBEEF, Key: first.Key}
	r1.write(wire.AppendRequest(nil, &del))
	if resp := r1.read(); resp.Status != wire.StatusOK {
		t.Fatalf("delete answered %+v", resp)
	}
	del.ID = 10
	r2.write(wire.AppendRequest(nil, &del))
	if resp := r2.read(); resp.Status != wire.StatusOK || resp.ID != 10 {
		t.Fatalf("replayed delete answered %+v", resp)
	}
	if n := count(r1, 5); n != 0 {
		t.Fatalf("value still present %d times after delete", n)
	}
}

// TestDedupWindowEvicts: the token window is bounded — after cap inserts
// the oldest token is forgotten and a very late retry re-executes.
func TestDedupWindowEvicts(t *testing.T) {
	d := newDedupWindow(2)
	a, first := d.claim(1)
	if !first {
		t.Fatal("fresh token not first")
	}
	close(a.done)
	if _, first := d.claim(2); !first {
		t.Fatal("fresh token not first")
	}
	if _, first := d.claim(3); !first { // evicts token 1
		t.Fatal("fresh token not first")
	}
	if _, first := d.claim(1); !first {
		t.Fatal("evicted token should have been forgotten")
	}
	if _, first := d.claim(3); first {
		t.Fatal("live token re-claimed as first")
	}
}

// TestTTLExpiredSkipsExecution: a request whose wire TTL burns out while
// the worker is busy is answered with a timeout and never reaches the
// engine — the server does not waste a slot on an answer nobody awaits.
func TestTTLExpiredSkipsExecution(t *testing.T) {
	g := &stallEngine{gate: make(chan struct{})}
	s := startServer(t, g, Options{Serve: serve.Options{Workers: 1}})
	r := rawDial(t, s)

	r.write(wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpQuery, Query: stallQuery}))
	time.Sleep(20 * time.Millisecond)
	r.write(wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpQuery, Query: stallQuery, TTL: 30 * time.Millisecond}))

	resp := r.read()
	if resp.ID != 2 || resp.Status != wire.StatusErr || !strings.Contains(resp.Err, "deadline") {
		t.Fatalf("expired request answered %+v, want deadline error for ID 2", resp)
	}
	close(g.gate)
	if resp := r.read(); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("stalled query answered %+v", resp)
	}
	if g.calls.Load() != 1 {
		t.Fatalf("engine executed %d queries, want 1 (expired one skipped)", g.calls.Load())
	}
}
