package netserve

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// readerSpy answers like the engine it wraps and counts, per QueryRO, whether
// the call ran on a connection's reader goroutine — the inline path — or on
// a goroutine dispatched for the request.
type readerSpy struct {
	engine.Engine
	inline, dispatched atomic.Int64
}

func (e *readerSpy) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	onReader := false
	for more := true; more && !onReader; {
		var f runtime.Frame
		f, more = frames.Next()
		// A dispatch goroutine starts in readLoop's closure, readLoop.func1.
		onReader = strings.HasSuffix(f.Function, "(*conn).readLoop")
	}
	if onReader {
		e.inline.Add(1)
	} else {
		e.dispatched.Add(1)
	}
	return e.Engine.QueryRO(q)
}

// TestInlineServesBothReadOps: the reader's fast path takes the explicitly
// read-only op as well as OpQuery, so a warm Client.QueryRO — every hedged
// read is one — costs no goroutine per request. A QueryRO the engine refuses
// inline falls through to dispatch, is refused there again, and still reads
// ok == false without having reorganized anything.
func TestInlineServesBothReadOps(t *testing.T) {
	spy := &readerSpy{Engine: engine.New(engine.Sideways, buildRel(5, 4000, 1000))}
	s := startServer(t, spy, Options{})
	c := dial(t, s, client.Options{})
	warm := engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(100, 200)}}, Projs: []string{"B"}}
	cold := engine.Query{Preds: []engine.AttrPred{{Attr: "C", Pred: store.Range(300, 400)}}, Projs: []string{"A"}}
	want, _, err := c.Query(warm) // cracks: refused inline, executed by a dispatched Query
	if err != nil || want.N == 0 {
		t.Fatalf("warming query: N=%d err=%v", want.N, err)
	}

	// An inline execution that overran inlineCutoff — a loaded box — sends the
	// next inlineCooldownN requests to dispatch; the reader takes the one after.
	for name, read := range map[string]func() (engine.Result, bool, error){
		"QueryRO": func() (engine.Result, bool, error) { res, _, ok, err := c.QueryRO(warm); return res, ok, err },
		"Query":   func() (engine.Result, bool, error) { res, _, err := c.Query(warm); return res, true, err },
	} {
		inline := false
		for try := 0; try < 4*inlineCooldownN && !inline; try++ {
			in, out := spy.inline.Load(), spy.dispatched.Load()
			res, ok, err := read()
			if err != nil || !ok || res.N != want.N {
				t.Fatalf("warm %s: N=%d ok=%v err=%v, want N=%d", name, res.N, ok, err, want.N)
			}
			inline = spy.inline.Load() == in+1 && spy.dispatched.Load() == out
		}
		if !inline {
			t.Errorf("no warm %s in %d was answered on the reader goroutine", name, 4*inlineCooldownN)
		}
	}

	storage := spy.Storage()
	for i := 0; i < 2; i++ {
		out := spy.dispatched.Load()
		if _, _, ok, err := c.QueryRO(cold); err != nil || ok {
			t.Fatalf("cold QueryRO: ok=%v err=%v, want a refusal", ok, err)
		}
		if spy.dispatched.Load() != out+1 {
			t.Fatalf("a refused QueryRO was not answered by dispatch")
		}
	}
	if got := spy.Storage(); got != storage {
		t.Fatalf("a refused QueryRO reorganized the store: storage %d -> %d tuples", storage, got)
	}
}
