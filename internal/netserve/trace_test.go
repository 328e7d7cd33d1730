package netserve

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/store"
)

func rangeQuery(lo, hi store.Value) engine.Query {
	return engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, hi)}},
		Projs: []string{"B"},
	}
}

// TestTracePropagation is the end-to-end tracing contract: a client with
// TraceSample=1 negotiates protocol v2, every query rides the wire with a
// trace ID, and the assembled trace covers the queue and execute stages
// with monotonically non-decreasing stage start times, bracketed by the
// client's own send/recv spans.
func TestTracePropagation(t *testing.T) {
	rel := buildRel(1, 2000, 500)
	s := startServer(t, engine.Concurrent(engine.New(engine.Sideways, rel)), Options{})

	var (
		mu     sync.Mutex
		traces []*obs.Trace
	)
	c := dial(t, s, client.Options{
		TraceSample: 1,
		OnTrace: func(tr *obs.Trace) {
			mu.Lock()
			traces = append(traces, tr)
			mu.Unlock()
		},
	})

	if _, _, err := c.Query(rangeQuery(100, 140)); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, _, _, err := c.QueryRO(rangeQuery(100, 140)); err != nil {
		t.Fatalf("QueryRO: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(traces) != 2 {
		t.Fatalf("collected %d traces, want 2 (did v2 negotiation fail?)", len(traces))
	}
	for i, tr := range traces {
		if tr.ID == 0 {
			t.Errorf("trace %d: zero ID", i)
		}
		if tr.Total <= 0 {
			t.Errorf("trace %d: non-positive total %v", i, tr.Total)
		}
		if tr.Err != "" {
			t.Errorf("trace %d: unexpected error %q", i, tr.Err)
		}
		stages := make(map[obs.Stage]bool)
		for _, sp := range tr.Spans {
			stages[sp.Stage] = true
		}
		// Queue and execute must have crossed the wire from the server;
		// send and recv are the client's own brackets.
		for _, want := range []obs.Stage{obs.StageClientSend, obs.StageQueue, obs.StageExecute, obs.StageClientRecv} {
			if !stages[want] {
				t.Errorf("trace %d: missing stage %v in %v", i, want, tr.Spans)
			}
		}
		if tr.Spans[0].Stage != obs.StageClientSend {
			t.Errorf("trace %d: first span %v, want client_send", i, tr.Spans[0].Stage)
		}
		if last := tr.Spans[len(tr.Spans)-1]; last.Stage != obs.StageClientRecv {
			t.Errorf("trace %d: last span %v, want client_recv", i, last.Stage)
		}
		for j := 1; j < len(tr.Spans); j++ {
			if tr.Spans[j].Start < tr.Spans[j-1].Start {
				t.Errorf("trace %d: stage starts not monotonic: %v", i, tr.Spans)
			}
		}
		for j, sp := range tr.Spans {
			if sp.Start < 0 || sp.Dur < 0 || sp.Start+sp.Dur > tr.Total {
				t.Errorf("trace %d span %d: %+v escapes total %v", i, j, sp, tr.Total)
			}
		}
	}
}

// TestTraceUntracedClientHasNoCallbacks: without TraceSample the client
// never negotiates tracing and OnTrace never fires.
func TestTraceUntracedClientHasNoCallbacks(t *testing.T) {
	rel := buildRel(1, 1000, 500)
	s := startServer(t, engine.New(engine.Sideways, rel), Options{})
	fired := false
	c := dial(t, s, client.Options{OnTrace: func(*obs.Trace) { fired = true }})
	if _, _, err := c.Query(rangeQuery(100, 140)); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if fired {
		t.Errorf("OnTrace fired without TraceSample")
	}
}

// TestServerSideSampling: a server started with TraceSample=1 traces
// requests from an untraced client and emits one-line JSON events with
// queue, execute, and encode spans to its sink, while the client sees a
// perfectly ordinary response.
func TestServerSideSampling(t *testing.T) {
	rel := buildRel(1, 2000, 500)
	var sink bytes.Buffer
	s := startServer(t, engine.New(engine.Sideways, rel), Options{
		TraceSample: 1,
		TraceSink:   &sink,
	})
	c := dial(t, s, client.Options{})

	res, _, err := c.Query(rangeQuery(100, 140))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.N == 0 {
		t.Fatalf("empty result")
	}

	// The event is written to the sink before the response frame is
	// enqueued, so it is visible once the client call returns.
	out := sink.String()
	if !strings.Contains(out, `"trace":"`) {
		t.Fatalf("no trace event emitted; sink: %q", out)
	}
	line := strings.SplitN(out, "\n", 2)[0]
	for _, stage := range []string{`"queue"`, `"execute"`, `"encode"`} {
		if !strings.Contains(line, stage) {
			t.Errorf("server event missing %s span: %s", stage, line)
		}
	}
}

// TestMetricsEndToEnd drives queries over the wire against a fully
// instrumented server and asserts the layered families the daemon test's
// metrics scenario (cmd/crackserved) scrapes are present and moving.
func TestMetricsEndToEnd(t *testing.T) {
	rel := buildRel(1, 2000, 500)
	reg := obs.NewRegistry()
	// Partial maps under a budget: the engine with every kernel family and
	// the chunk lifecycle ones.
	e := engine.Concurrent(engine.NewPartialWithBudget(rel, 2*rel.NumRows()))
	s := startServer(t, e, Options{Metrics: reg})
	engine.RegisterMetrics(reg, s.srv.Engine())
	c := dial(t, s, client.Options{Metrics: reg})

	for i := 0; i < 10; i++ {
		lo := store.Value(50 + 20*i)
		if _, _, err := c.Query(rangeQuery(lo, lo+15)); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()

	if fams := len(reg.Families()); fams < 25 {
		t.Errorf("only %d families registered, want >= 25", fams)
	}
	// One family per layer must have moved off zero.
	for _, fam := range []string{
		"crack_serve_queries_total 1",
		"crack_net_frames_read_total 1",
		"crack_net_conns_total 1",
		"crack_kernel_crack_in_two_total",
		"crack_index_pieces",
		"crack_engine_storage_tuples",
		"crack_partial_chunks_created_total",
		"crack_partial_chunk_tuples_created_total",
		"crack_partial_chunks_evicted_total",
	} {
		if !strings.Contains(out, strings.SplitN(fam, " ", 2)[0]) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	for _, nonzero := range []string{"crack_serve_queries_total 0\n", "crack_net_frames_read_total 0\n"} {
		if strings.Contains(out, nonzero) {
			t.Errorf("family stuck at zero: %s", strings.TrimSpace(nonzero))
		}
	}
}
