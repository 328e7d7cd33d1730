package serve

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/store"
)

func buildRel(rng *rand.Rand, n int, domain int64) *store.Relation {
	return store.Build("R", n, []string{"A", "B"}, func(attr string, row int) store.Value {
		return rng.Int63n(domain)
	})
}

// TestServeMatchesDirectCounts fires many clients at one shared sideways
// engine and checks every result count against a direct scan of the base
// relation (read-only workload, so counts are stable).
func TestServeMatchesDirectCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := buildRel(rng, 4000, 500)
	srv := New(engine.New(engine.Sideways, rel), Options{Workers: 4})

	preds := make([]store.Pred, 16)
	want := make([]int, 16)
	for i := range preds {
		lo := rng.Int63n(450)
		preds[i] = store.Range(lo, lo+40)
		want[i] = store.SelectCount(rel.MustColumn("A"), preds[i])
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 40; i++ {
				j := r.Intn(len(preds))
				res, _, err := srv.Do(engine.Query{
					Preds: []engine.AttrPred{{Attr: "A", Pred: preds[j]}},
					Projs: []string{"B"},
				})
				if err != nil {
					errs <- err.Error()
					return
				}
				if res.N != want[j] {
					errs <- "wrong result count"
					return
				}
				if len(res.Cols["B"]) != want[j] {
					errs <- "projection length mismatch"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("%s", e)
	}

	st := srv.Stats()
	if st.Queries != 8*40 {
		t.Fatalf("stats recorded %d queries, want %d", st.Queries, 8*40)
	}
	if st.QPS <= 0 || st.P50 <= 0 || st.P99 < st.P50 || st.Max < st.P99 {
		t.Fatalf("implausible stats %+v", st)
	}
	srv.Close()
	if _, _, err := srv.Do(engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: preds[0]}},
	}); err != ErrClosed {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

// TestServeSurvivesPanickingQuery: a query naming a nonexistent attribute
// panics inside the engine; the server must surface it as an error and
// keep serving (no leaked semaphore slot).
func TestServeSurvivesPanickingQuery(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(4)), 500, 100)
	srv := New(engine.New(engine.Sideways, rel), Options{Workers: 2})
	bad := engine.Query{Preds: []engine.AttrPred{{Attr: "nope", Pred: store.Range(0, 10)}}}
	good := engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(0, 10)}}, Projs: []string{"B"}}
	for i := 0; i < 8; i++ { // more bad queries than worker slots
		if _, _, err := srv.Do(bad); err == nil {
			t.Fatal("panicking query returned no error")
		}
	}
	if _, _, err := srv.Do(good); err != nil {
		t.Fatalf("server unusable after panics: %v", err)
	}
	srv.Close()
}

// TestStatsPercentileNearestRank pins the percentile math against known
// sample sets: nearest-rank with a ceiling, never the truncated index that
// underreported tail latency (P99 of 200 samples must read sorted index
// 198 = ceil(0.99*199), not int(0.99*199) = 197).
func TestStatsPercentileNearestRank(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	seq := func(n int) []time.Duration { // 1ms..n ms, so sorted[i] = (i+1)ms
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = ms(i + 1)
		}
		return out
	}
	cases := []struct {
		name               string
		lats               []time.Duration
		p50, p95, p99, max time.Duration
	}{
		{"one sample", seq(1), ms(1), ms(1), ms(1), ms(1)},
		{"two samples", seq(2), ms(2), ms(2), ms(2), ms(2)},
		// n=10: ceil(.5*9)=5, ceil(.95*9)=9, ceil(.99*9)=9
		{"ten samples", seq(10), ms(6), ms(10), ms(10), ms(10)},
		// n=100: ceil(.5*99)=50, ceil(.95*99)=95, ceil(.99*99)=99
		{"hundred samples", seq(100), ms(51), ms(96), ms(100), ms(100)},
		// n=200: ceil(.5*199)=100, ceil(.95*199)=190, ceil(.99*199)=198 —
		// the truncating implementation read 99, 189, and 197.
		{"two hundred samples", seq(200), ms(101), ms(191), ms(199), ms(200)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(engine.NewScan(store.NewRelation("R", "A")), Options{})
			s.lats = tc.lats
			st := s.Stats()
			if st.P50 != tc.p50 || st.P95 != tc.p95 || st.P99 != tc.p99 || st.Max != tc.max {
				t.Fatalf("got p50=%v p95=%v p99=%v max=%v, want p50=%v p95=%v p99=%v max=%v",
					st.P50, st.P95, st.P99, st.Max, tc.p50, tc.p95, tc.p99, tc.max)
			}
		})
	}
}

// TestStatsFirstSubmissionMinimum feeds staggered synthetic t0s through the
// recording paths out of order and concurrently: Elapsed must span from the
// *earliest* submission, not whichever racing Do stamped first.
func TestStatsFirstSubmissionMinimum(t *testing.T) {
	base := time.Now()
	ms := time.Millisecond
	s := New(engine.NewScan(store.NewRelation("R", "A")), Options{})
	// Out of order: the 5s-offset submission completes after the 10s one,
	// and the earliest submission of all belongs to an errored query.
	s.record(ms, base.Add(10*time.Second))
	s.record(ms, base.Add(5*time.Second))
	s.recordError(base.Add(2*time.Second), base.Add(3*time.Second))
	s.record(time.Second, base.Add(29*time.Second)) // completes at base+30s
	if st := s.Stats(); st.Elapsed != 28*time.Second {
		t.Fatalf("Elapsed = %v, want 28s (earliest t0 must win, not the first writer)", st.Elapsed)
	}
	// An error tail after the last success extends the wall clock too.
	s.recordError(base.Add(31*time.Second), base.Add(34*time.Second))
	if st := s.Stats(); st.Elapsed != 32*time.Second {
		t.Fatalf("Elapsed = %v, want 32s (errored completions are part of the run)", st.Elapsed)
	}

	// Concurrent start-up (run under -race in CI): every permutation of the
	// races must still yield the minimum.
	s = New(engine.NewScan(store.NewRelation("R", "A")), Options{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.record(ms, base.Add(time.Duration(g)*time.Second))
		}(g)
	}
	wg.Wait()
	s.record(time.Second, base.Add(39*time.Second))
	if st := s.Stats(); st.Elapsed != 40*time.Second {
		t.Fatalf("concurrent Elapsed = %v, want 40s", st.Elapsed)
	}
}

// TestStatsCountsErrors: errored queries must surface in Stats.Errors
// instead of silently shrinking the run.
func TestStatsCountsErrors(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(9)), 500, 100)
	srv := New(engine.New(engine.Sideways, rel), Options{Workers: 2})
	bad := engine.Query{Preds: []engine.AttrPred{{Attr: "nope", Pred: store.Range(0, 10)}}}
	good := engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(0, 10)}}, Projs: []string{"B"}}
	for i := 0; i < 5; i++ {
		if _, _, err := srv.Do(bad); err == nil {
			t.Fatal("bad query returned no error")
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := srv.Do(good); err != nil {
			t.Fatalf("good query failed: %v", err)
		}
	}
	st := srv.Stats()
	if st.Errors != 5 {
		t.Fatalf("Stats.Errors = %d, want 5", st.Errors)
	}
	if st.Queries != 3 {
		t.Fatalf("Stats.Queries = %d, want 3", st.Queries)
	}
	srv.Close()
}

func TestServeRejectsEmptyQuery(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(3)), 100, 50)
	srv := New(engine.New(engine.Scan, rel), Options{Workers: 1})
	defer srv.Close()
	if _, _, err := srv.Do(engine.Query{}); err != ErrEmptyQuery {
		t.Fatalf("Do(empty) = %v, want ErrEmptyQuery", err)
	}
}

// TestNewOwnsNoGoroutines: there is one executor and it is the caller's
// goroutine — constructing a server starts nothing, so there is nothing
// for Close to stop and nothing to leak when Close is forgotten.
func TestNewOwnsNoGoroutines(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(3)), 100, 50)
	e := engine.New(engine.Scan, rel)
	before := runtime.NumGoroutine()
	srv := New(e, Options{Workers: 8, Timeout: time.Second, MaxWaiting: 4})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
	srv.Close()
}

// TestTryROFeedsTheQueueHistogram: an inline answer waited for no slot, and
// the queue histogram says so with a zero sample, so it counts every query
// the server completed, inline ones included.
func TestTryROFeedsTheQueueHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(engine.New(engine.Sideways, buildRel(rand.New(rand.NewSource(5)), 2000, 500)), Options{Metrics: reg})
	q := engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(100, 200)}}, Projs: []string{"B"}}
	if _, _, err := srv.Do(q); err != nil { // cracks, so the rest are read-only
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, _, ok := srv.TryRO(q); !ok {
			t.Fatalf("TryRO %d refused a warm query", i)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	value := func(series string) string {
		m := regexp.MustCompile(`(?m)^` + series + ` (\S+)$`).FindStringSubmatch(b.String())
		if m == nil {
			t.Fatalf("no %s in the exposition", series)
		}
		return m[1]
	}
	want := fmt.Sprint(n + 1)
	if got := value("crack_serve_queries_total"); got != want {
		t.Fatalf("crack_serve_queries_total %s, want %s", got, want)
	}
	if got := value("crack_serve_queue_seconds_count"); got != want {
		t.Errorf("crack_serve_queue_seconds_count %s, want %s: inline answers skipped the queue histogram", got, want)
	}
}
