package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusGolden pins the text exposition byte-for-byte: families
// sorted by name, counters/gauges/func-backed scalars, and a histogram
// with log2 buckets in seconds, cumulative counts, an +Inf bucket, and
// the exact-max companion gauge. The format is protocol surface for
// scrapers and cmd/crackserved's daemon test; change it deliberately.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("crack_test_events_total", "events handled")
	c.Add(3)
	g := r.Gauge("crack_test_depth", "queue depth")
	g.Set(-2)
	r.CounterFunc("crack_test_bridge_total", "bridged cumulative stat", func() uint64 { return 7 })
	r.GaugeFunc("crack_test_ratio", "bridged instantaneous stat", func() float64 { return 1.5 })
	h := r.Histogram("crack_test_latency_seconds", "query latency")
	h.Observe(100 * time.Nanosecond) // bucket 7: (63ns, 127ns]
	h.Observe(300 * time.Nanosecond) // bucket 9: (255ns, 511ns]

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP crack_test_bridge_total bridged cumulative stat
# TYPE crack_test_bridge_total counter
crack_test_bridge_total 7
# HELP crack_test_depth queue depth
# TYPE crack_test_depth gauge
crack_test_depth -2
# HELP crack_test_events_total events handled
# TYPE crack_test_events_total counter
crack_test_events_total 3
# HELP crack_test_latency_seconds query latency
# TYPE crack_test_latency_seconds histogram
crack_test_latency_seconds_bucket{le="0"} 0
crack_test_latency_seconds_bucket{le="1e-09"} 0
crack_test_latency_seconds_bucket{le="3e-09"} 0
crack_test_latency_seconds_bucket{le="7e-09"} 0
crack_test_latency_seconds_bucket{le="1.5e-08"} 0
crack_test_latency_seconds_bucket{le="3.1e-08"} 0
crack_test_latency_seconds_bucket{le="6.3e-08"} 0
crack_test_latency_seconds_bucket{le="1.27e-07"} 1
crack_test_latency_seconds_bucket{le="2.55e-07"} 1
crack_test_latency_seconds_bucket{le="5.11e-07"} 2
crack_test_latency_seconds_bucket{le="+Inf"} 2
crack_test_latency_seconds_sum 4e-07
crack_test_latency_seconds_count 2
# HELP crack_test_latency_seconds_max exact maximum observation of crack_test_latency_seconds
# TYPE crack_test_latency_seconds_max gauge
crack_test_latency_seconds_max 3e-07
# HELP crack_test_ratio bridged instantaneous stat
# TYPE crack_test_ratio gauge
crack_test_ratio 1.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestJSONExposition sanity-checks the machine-readable twin: every
// family present, histograms summarized.
func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("crack_test_a_total", "a").Inc()
	h := r.Histogram("crack_test_b_seconds", "b")
	h.Observe(time.Millisecond)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := b.String()
	for _, frag := range []string{
		`"crack_test_a_total":{"type":"counter","value":1}`,
		`"crack_test_b_seconds":{"type":"histogram","count":1,`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("JSON exposition missing %s in:\n%s", frag, out)
		}
	}
}

// TestHistogramQuantileBounds checks the log2-bucket guarantee: a
// reported quantile is never below the true value and never more than
// 2x above it, and Max is exact.
func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	exactP99 := 990 * time.Microsecond
	got := h.Quantile(0.99)
	if got < exactP99 || got > 2*exactP99 {
		t.Errorf("p99 = %v, want within [%v, %v]", got, exactP99, 2*exactP99)
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("max = %v, want exactly 1ms", h.Max())
	}
	if h.Count() != 1000 {
		t.Errorf("count = %d, want 1000", h.Count())
	}
}

// TestHistogramHammer drives a histogram from 8 goroutines while a
// scraper renders the full exposition and reads quantiles concurrently.
// Run under -race this is the proof the hot path and the scrape path
// need no locks; the final totals must still be exact.
func TestHistogramHammer(t *testing.T) {
	const (
		goroutines = 8
		perG       = 20000
	)
	r := NewRegistry()
	h := r.Histogram("crack_test_hammer_seconds", "hammered")
	c := r.Counter("crack_test_hammer_total", "hammered")

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				_ = h.Quantile(0.99)
				_ = h.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Nanosecond)
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if h.Count() != goroutines*perG {
		t.Errorf("count = %d, want %d", h.Count(), goroutines*perG)
	}
	if c.Value() != goroutines*perG {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	wantMax := time.Duration(goroutines*perG) * time.Nanosecond
	if h.Max() != wantMax {
		t.Errorf("max = %v, want %v", h.Max(), wantMax)
	}
	// Sum of 1..goroutines*perG nanoseconds.
	n := uint64(goroutines * perG)
	if got, want := uint64(h.Sum()), n*(n+1)/2; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// TestNilRegistry: a nil *Registry must hand out working instruments and
// no-op on every read path, so layers can instrument unconditionally.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("counter from nil registry broken: %d", c.Value())
	}
	r.Gauge("y", "").Set(5)
	r.Histogram("z_seconds", "").Observe(time.Second)
	r.CounterFunc("cf_total", "", func() uint64 { return 1 })
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	if fams := r.Families(); fams != nil {
		t.Errorf("nil registry families = %v", fams)
	}
}

func TestDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "")
}

// TestTraceWriteJSON pins the one-line event format of server emission
// (`crackserved -trace-sample`).
func TestTraceWriteJSON(t *testing.T) {
	tr := Trace{
		ID:    0xabc,
		Op:    "query",
		Total: 1500 * time.Microsecond,
		Spans: []Span{
			{Stage: StageClientSend, Start: 0, Dur: 100 * time.Microsecond},
			{Stage: StageQueue, Start: 100 * time.Microsecond, Dur: 200 * time.Microsecond},
			{Stage: StageExecute, Start: 300 * time.Microsecond, Dur: 1000 * time.Microsecond},
		},
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{"trace":"0000000000000abc","op":"query","total_us":1500,"spans":[` +
		`{"stage":"client_send","start_us":0,"dur_us":100},` +
		`{"stage":"queue","start_us":100,"dur_us":200},` +
		`{"stage":"execute","start_us":300,"dur_us":1000}]}` + "\n"
	if got := b.String(); got != want {
		t.Errorf("trace event:\n got %s want %s", got, want)
	}

	tr.Err = "boom"
	b.Reset()
	_ = tr.WriteJSON(&b)
	if !strings.Contains(b.String(), `"err":"boom"`) {
		t.Errorf("error trace missing err field: %s", b.String())
	}
}

// TestSampler checks the 1-in-N contract and the nonzero-ID guarantee.
func TestSampler(t *testing.T) {
	if s := NewSampler(0); s != nil {
		t.Errorf("NewSampler(0) should disable sampling")
	}
	var nilS *Sampler
	if _, ok := nilS.Next(); ok {
		t.Errorf("nil sampler sampled")
	}

	s := NewSampler(4)
	sampled := 0
	for i := 0; i < 4000; i++ {
		if id, ok := s.Next(); ok {
			sampled++
			if id == 0 {
				t.Fatalf("sampled with zero trace ID")
			}
		}
	}
	if sampled != 1000 {
		t.Errorf("1-in-4 sampler: %d/4000 sampled, want 1000", sampled)
	}
}
