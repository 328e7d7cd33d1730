// Package serve implements the concurrent query-serving layer: a bounded
// executor that runs queries from many clients against one shared engine,
// with per-query latency capture.
//
// The layer builds on the engine two-phase (QueryRO, then Query) protocol:
// the engine is wrapped in engine.Concurrent unless it is already shared-safe,
// so reorganization-free queries — the vast majority after a warm-up — run
// in parallel under a shared read lock, and only queries that must crack,
// merge pending updates, or maintain auxiliary structures serialize behind
// the write lock.
//
// Queries execute directly on the submitting goroutine under a
// concurrency-limiting semaphore (Workers slots) — no handoff, no context
// switch, and no goroutine owned by the server.
//
// Every serving event is counted once, in an obs instrument the server
// always keeps (a handful of atomics per query): Stats reads them, and
// Options.Metrics only decides whether a registry exports them too.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
)

// Options tunes the server.
type Options struct {
	// Workers bounds the number of concurrently executing queries; 0
	// means GOMAXPROCS.
	Workers int
	// MaxWaiting, when > 0, bounds the number of queries waiting for an
	// execution slot: a submission arriving with the watermark already
	// reached is shed immediately with ErrOverloaded instead of queueing.
	// Shedding is the overload defense for the remote path — the server
	// answers cheaply and in-band rather than letting an unbounded backlog
	// stretch every caller's latency (or stall the connection). 0 disables
	// shedding; the backlog then grows without limit.
	MaxWaiting int
	// Timeout is an optional per-query deadline covering both the wait
	// for an execution slot and the execution itself; 0 disables. A query
	// whose deadline expires returns ErrTimeout (counted in Stats.Errors).
	// Expiry never leaks a worker slot: a query already executing when its
	// caller gives up finishes in the background and releases its slot,
	// while the caller gets ErrTimeout immediately — so one slow crack
	// cannot wedge the callers (or a network connection's pipeline) stuck
	// behind it.
	Timeout time.Duration
	// Metrics, when non-nil, exports the serving-layer instruments as the
	// crack_serve_* families of the given registry. The instruments exist
	// and count either way — they are what Stats reads. One registry
	// serves one Server — registering two servers in the same registry
	// panics on the duplicate family names.
	Metrics *obs.Registry
	// LatencyWindow bounds the retained per-query latency samples: once
	// full, the oldest samples are overwritten, so percentiles describe a
	// sliding window of recent queries while Queries and QPS still count
	// everything. 0 keeps every sample — right for bounded benchmark runs
	// that export full series, fatal for a long-running daemon (a server
	// at ~50k q/s would otherwise leak ~0.4 MB/s of history forever);
	// netserve sets a window by default.
	LatencyWindow int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("serve: server is closed")

// ErrEmptyQuery is returned for queries without predicates.
var ErrEmptyQuery = errors.New("serve: query has no predicates")

// ErrTimeout is returned by Do when Options.Timeout expires before the
// query completes — whether it was still waiting for a slot or already
// executing. Timed-out queries count in Stats.Errors.
var ErrTimeout = errors.New("serve: query deadline exceeded")

// ErrOverloaded is returned by Do when Options.MaxWaiting is set and the
// wait backlog is at the watermark: the query was shed without executing.
// Shed queries count in Stats.Sheds, not Stats.Errors — a shed is the
// overload defense working, not a failure of the query.
var ErrOverloaded = errors.New("serve: server overloaded, query shed")

// SpanTimes receives the serving-side stage timings of one query from
// DoUntilSpans: Queue is the time from submission to the start of
// execution (the semaphore wait), Exec the engine execution time. Only
// filled in for successful queries.
type SpanTimes struct {
	Queue time.Duration
	Exec  time.Duration
}

// errRefused is QueryRO's refusal travelling the execution path of DoRO: the
// query would reorganize, so nothing ran — neither a success nor an error.
var errRefused = errors.New("serve: read-only query would reorganize")

// Server executes queries from many clients against one shared engine.
type Server struct {
	e    engine.Engine
	opts Options

	// The serving counters, each kept once. The success path is two
	// histogram observes and nothing else: the query count is the latency
	// histogram's (every success observes it exactly once), and inflight is
	// the semaphore depth.
	errors   *obs.Counter // failed: engine errors and deadline expiries
	timeouts *obs.Counter // the deadline expiries among them
	sheds    *obs.Counter
	latency  *obs.Histogram // successes, submission to completion
	queue    *obs.Histogram // successes, wait for an execution slot

	sem chan struct{} // concurrency-limiting semaphore, Workers slots

	inDo    sync.WaitGroup // Do calls in flight
	bg      sync.WaitGroup // detached executions whose caller timed out
	closed  atomic.Bool
	waiting atomic.Int64 // Do calls blocked on the semaphore

	mu     sync.Mutex
	lats   []time.Duration
	latPos int       // LatencyWindow mode: next overwrite position once full
	first  time.Time // earliest submission
	last   time.Time // last completion
}

// New returns a server over e. How the engine is shared, and under which
// cracking policy, is decided where the engine is built (engine.NewWith,
// engine.Snapshot, shard.Options, engine.OpenDurable); New keeps one rule:
// e goes through engine.Concurrent, which wraps a bare engine and leaves
// one that already guards itself (its report has a Readers or Snapshot
// section) as it is. The server owns no goroutines; Close waits for
// in-flight queries.
func New(e engine.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	r := opts.Metrics // nil registers nowhere and still returns working instruments
	s := &Server{
		e: engine.Concurrent(e), opts: opts, sem: make(chan struct{}, opts.Workers),
		errors:   r.Counter("crack_serve_errors_total", "queries that failed (engine errors and deadline expiries)"),
		timeouts: r.Counter("crack_serve_timeouts_total", "queries that failed by deadline expiry (subset of errors)"),
		sheds:    r.Counter("crack_serve_sheds_total", "queries shed in-band at the MaxWaiting watermark"),
		latency:  r.Histogram("crack_serve_latency_seconds", "successful query latency, submission to completion (wait + execute)"),
		queue:    r.Histogram("crack_serve_queue_seconds", "successful query wait for an execution slot"),
	}
	r.CounterFunc("crack_serve_queries_total", "queries completed successfully", s.latency.Count)
	// A slot is held for exactly the execution window (detached timed-out
	// executions included), so the semaphore depth is the inflight count.
	r.GaugeFunc("crack_serve_inflight", "queries executing on the engine right now", func() float64 {
		return float64(len(s.sem))
	})
	r.GaugeFunc("crack_serve_waiting", "queries waiting for an execution slot", func() float64 {
		return float64(s.waiting.Load())
	})
	return s
}

// Engine returns the shared (wrapped) engine the server executes against.
func (s *Server) Engine() engine.Engine { return s.e }

// Do submits q and blocks until it has been executed, returning the result
// and the engine cost split. The captured latency spans submission to
// completion, including semaphore wait time. Do is safe to call from any
// number of goroutines.
func (s *Server) Do(q engine.Query) (engine.Result, engine.Cost, error) {
	return s.do(q, time.Time{}, nil, false)
}

// DoUntilSpans is Do with an explicit absolute deadline, the entry point
// for callers that carry their own expiry — netserve maps a request's wire
// TTL hint here, so a query whose client has already given up is skipped
// instead of executed. A zero deadline means no caller deadline; when
// Options.Timeout is also set, the earlier of the two applies. Expiry
// returns ErrTimeout with the same exactly-once accounting and no-slot-leak
// guarantees as Options.Timeout. For traced queries sp, when non-nil,
// receives the queue and execute stage durations on success (netserve
// encodes them as response spans), at the cost of two extra clock reads on
// this call only.
func (s *Server) DoUntilSpans(q engine.Query, deadline time.Time, sp *SpanTimes) (engine.Result, engine.Cost, error) {
	return s.do(q, deadline, sp, false)
}

// DoRO is DoUntilSpans for a query that must not reorganize: it takes the
// same path — slot, deadline, shedding, accounting — but executes
// Engine.QueryRO, never Engine.Query. ok is false, with a nil error, when
// the engine refused because answering would reorganize; a refusal is
// neither a success nor an error in Stats (nothing ran). There is no asking
// first and executing second: the engine's answer is the execution.
func (s *Server) DoRO(q engine.Query, deadline time.Time, sp *SpanTimes) (res engine.Result, cost engine.Cost, ok bool, err error) {
	if res, cost, err = s.do(q, deadline, sp, true); errors.Is(err, errRefused) {
		return res, cost, false, nil
	}
	return res, cost, err == nil, err
}

// do is the one submission path: q executes read-only when ro is set, and
// then fails with errRefused if the engine would have to reorganize.
func (s *Server) do(q engine.Query, deadline time.Time, sp *SpanTimes, ro bool) (engine.Result, engine.Cost, error) {
	if len(q.Preds) == 0 {
		return engine.Result{}, engine.Cost{}, ErrEmptyQuery
	}
	t0 := time.Now()
	if s.opts.Timeout > 0 {
		if td := t0.Add(s.opts.Timeout); deadline.IsZero() || td.Before(deadline) {
			deadline = td
		}
	}
	// Register before checking closed: Close flips the flag first and then
	// waits for inDo, so a Do that passed the check is always waited for.
	s.inDo.Add(1)
	defer s.inDo.Done()
	if s.closed.Load() {
		return engine.Result{}, engine.Cost{}, ErrClosed
	}
	if !deadline.IsZero() && !t0.Before(deadline) {
		// Expired before submission (e.g. the TTL burned up in transit):
		// never touches a slot.
		s.recordTimeout(t0, t0)
		return engine.Result{}, engine.Cost{}, ErrTimeout
	}
	// Shed at the MaxWaiting watermark: the count of calls blocked on the
	// semaphore, a cheap, slightly racy read — overload control needs a
	// watermark, not an exact count.
	if s.opts.MaxWaiting > 0 && int(s.waiting.Load()) >= s.opts.MaxWaiting {
		s.sheds.Inc()
		return engine.Result{}, engine.Cost{}, ErrOverloaded
	}
	if !deadline.IsZero() {
		return s.doDeadline(q, t0, deadline, sp, ro)
	}
	// Execute on this goroutine under the semaphore. The uncontended
	// acquire is non-blocking so the warm path can skip the mid-query clock
	// read: a slot taken without waiting means the slot wait was ~0 and the
	// queue histogram records an exact zero. Only actual waiters — and
	// span-traced queries, which need the queue/execute split regardless —
	// pay for a time.Now (~65ns on some VMs, the single largest per-query
	// instrumentation cost).
	var t1 time.Time
	select {
	case s.sem <- struct{}{}:
		if sp != nil {
			t1 = time.Now()
		}
	default:
		s.waiting.Add(1)
		s.sem <- struct{}{}
		s.waiting.Add(-1)
		t1 = time.Now()
	}
	res, cost, err := s.run(q, ro)
	<-s.sem
	s.account(t0, t1, time.Now(), sp, err)
	return res, cost, err
}

// account records one executed query: an error, or a success with its
// latency and its queue/execute split. t1 is when execution began; zero
// means the slot was taken without waiting and nobody needed the clock
// read, so the queue time is an exact zero.
func (s *Server) account(t0, t1, end time.Time, sp *SpanTimes, err error) {
	if err != nil {
		if !errors.Is(err, errRefused) {
			s.recordError(t0, end)
		}
		return
	}
	var queue time.Duration
	if !t1.IsZero() {
		queue = t1.Sub(t0)
	}
	if sp != nil {
		// On the deadline path this write happens before the send on the
		// outcome channel; the caller reads sp only after receiving.
		sp.Queue, sp.Exec = queue, end.Sub(t0)-queue
	}
	s.queue.Observe(queue)
	s.record(end.Sub(t0), t0)
}

// TryRO executes q immediately on the calling goroutine if the engine can
// answer it without reorganizing and a worker slot is free right now,
// recording it in the serving stats exactly like Do. ok is false — and
// nothing has executed — when the query needs reorganization (or panics:
// the Do fallback surfaces the error), no slot is free, or the server is
// closed; callers then fall back to Do. The point is dispatch cost: a
// network reader can answer the warm read-only majority inline instead of
// paying a goroutine handoff per request, while cracking queries still go
// through Do and pipeline out of order.
func (s *Server) TryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	if len(q.Preds) == 0 {
		return engine.Result{}, engine.Cost{}, false
	}
	t0 := time.Now()
	s.inDo.Add(1)
	defer s.inDo.Done()
	if s.closed.Load() {
		return engine.Result{}, engine.Cost{}, false
	}
	select {
	case s.sem <- struct{}{}:
	default: // all slots busy: let Do queue fairly
		return engine.Result{}, engine.Cost{}, false
	}
	res, cost, err := s.run(q, true)
	<-s.sem
	if err != nil {
		return engine.Result{}, engine.Cost{}, false
	}
	s.account(t0, time.Time{}, time.Now(), nil, nil) // the slot was free: an exact zero wait
	return res, cost, true
}

// outcome carries a detached execution's answer back to its Do call.
type outcome struct {
	res  engine.Result
	cost engine.Cost
	err  error
}

// doDeadline is do under a deadline. The wait for a semaphore slot is
// bounded by the deadline; once a slot is held the query runs on a detached
// goroutine so an expiring deadline returns ErrTimeout to the caller
// immediately while the execution finishes in the background and releases
// the slot itself — expiry can neither interrupt an engine mid-crack nor
// leak the slot.
func (s *Server) doDeadline(q engine.Query, t0, deadline time.Time, sp *SpanTimes, ro bool) (engine.Result, engine.Cost, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
	case <-timer.C:
		s.waiting.Add(-1)
		// Never got a slot; nothing to detach.
		s.recordTimeout(t0, time.Now())
		return engine.Result{}, engine.Cost{}, ErrTimeout
	}
	t1 := time.Now()
	var claimed atomic.Bool
	ch := make(chan outcome, 1)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		res, cost, err := s.run(q, ro)
		<-s.sem
		end := time.Now()
		if !claimed.CompareAndSwap(false, true) {
			return // caller timed out and accounted for the query; discard
		}
		s.account(t0, t1, end, sp, err)
		ch <- outcome{res, cost, err}
	}()
	select {
	case out := <-ch:
		return out.res, out.cost, out.err
	case <-timer.C:
		if claimed.CompareAndSwap(false, true) {
			s.recordTimeout(t0, time.Now())
			return engine.Result{}, engine.Cost{}, ErrTimeout
		}
		// The execution claimed first; its buffered answer is ready.
		out := <-ch
		return out.res, out.cost, out.err
	}
}

// run executes q on the engine — through QueryRO when ro is set, where a
// refusal is errRefused — and converts an engine panic (e.g. a predicate
// naming a column the relation does not have) into an error, so a malformed
// query can neither leak a semaphore slot nor take down the submitting
// goroutine.
func (s *Server) run(q engine.Query, ro bool) (res engine.Result, cost engine.Cost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: query panicked: %v", r)
		}
	}()
	if !ro {
		res, cost = s.e.Query(q)
		return res, cost, nil
	}
	res, cost, ok := s.e.QueryRO(q)
	if !ok {
		err = errRefused
	}
	return res, cost, err
}

// recordError counts a query that failed — an execution error or a
// deadline expiry. Failed queries capture no latency sample, so without
// this counter a run with failures would silently report healthy
// percentiles and QPS over fewer queries. Both of the query's endpoints
// still feed the run's wall clock (earliest submission, latest
// completion): a failed query occupied the server just the same. Sheds
// stay out of Errors and out of the wall clock: a shed request consumed no
// slot and no engine time.
func (s *Server) recordError(t0, end time.Time) {
	s.errors.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteStartLocked(t0)
	if end.After(s.last) {
		s.last = end
	}
}

// recordTimeout counts a deadline expiry: an error, and a timeout.
func (s *Server) recordTimeout(t0, end time.Time) {
	s.timeouts.Inc()
	s.recordError(t0, end)
}

// record captures a completed query: its latency, the completion-time
// high-water mark, and the earliest-submission marker. Tracking the
// minimum t0 (rather than stamping whichever racing Do got there first,
// as a sync.Once would) keeps Elapsed correct under concurrent start-up:
// the once-winner can carry a later t0 than another already-in-flight
// query, shrinking Elapsed and inflating QPS. Folding the minimum into
// the completion-side update keeps Do at one stats critical section per
// query.
func (s *Server) record(lat time.Duration, t0 time.Time) {
	s.latency.Observe(lat)
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.opts.LatencyWindow; w > 0 && len(s.lats) >= w {
		// Window full: overwrite round-robin so memory stays bounded on
		// long-running servers.
		s.lats[s.latPos] = lat
		s.latPos = (s.latPos + 1) % w
	} else {
		s.lats = append(s.lats, lat)
	}
	s.noteStartLocked(t0)
	if t := t0.Add(lat); t.After(s.last) {
		s.last = t
	}
}

// noteStartLocked folds t0 into the earliest-submission marker; the caller
// holds s.mu.
func (s *Server) noteStartLocked(t0 time.Time) {
	if s.first.IsZero() || t0.Before(s.first) {
		s.first = t0
	}
}

// Close waits for in-flight queries, including detached executions whose
// caller timed out. Close is idempotent; Do after Close returns ErrClosed.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.inDo.Wait() // let racing Do calls finish
	s.bg.Wait()   // and detached timed-out executions release their slots
}

// Stats summarizes the serving run so far.
type Stats struct {
	Queries int // completed queries (successful; errored queries are not counted here)
	// Errors counts queries that failed — an engine panic converted to an
	// error (typically a malformed query) or a deadline expiry
	// (ErrTimeout under Options.Timeout). Failed queries contribute no
	// latency sample, so QPS and the percentiles describe the Queries
	// successes only; a nonzero Errors flags that the run was not healthy.
	Errors int
	// Sheds counts queries rejected with ErrOverloaded at the MaxWaiting
	// watermark. They are neither Queries nor Errors: nothing executed.
	Sheds   int
	Elapsed time.Duration // earliest submission to last completion
	QPS     float64       // Queries / Elapsed

	// Latency percentiles (wait + execute), conservative nearest-rank:
	// Pxx is sorted[ceil(p*(n-1))], i.e. the fractional rank rounded
	// upward, so a reported tail percentile is never below the true one.
	P50, P95, P99, Max time.Duration
}

// Stats snapshots the server's counters. With LatencyWindow set, the
// percentiles describe the most recent window while Queries and QPS count
// every completed query. Stats reads only the server's own instruments and
// never calls into the engine, so a crack in progress does not delay it;
// how the engine's readers fared is engine.ConcStatsOf(Server.Engine()).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	sorted := append([]time.Duration(nil), s.lats...)
	first, last := s.first, s.last
	s.mu.Unlock()

	st := Stats{
		Queries: int(s.latency.Count()),
		Errors:  int(s.errors.Value()),
		Sheds:   int(s.sheds.Value()),
	}
	if len(sorted) == 0 {
		return st
	}
	if st.Elapsed = last.Sub(first); st.Elapsed > 0 {
		st.QPS = float64(st.Queries) / st.Elapsed.Seconds()
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) time.Duration {
		// Nearest-rank needs the ceiling: int() truncation toward zero
		// picks a rank below the percentile whenever the product is
		// non-integral (e.g. P99 of 200 samples read index 197 instead of
		// 198), systematically underreporting tail latency.
		return sorted[int(math.Ceil(p*float64(len(sorted)-1)))]
	}
	st.P50, st.P95, st.P99 = pct(0.50), pct(0.95), pct(0.99)
	st.Max = sorted[len(sorted)-1]
	return st
}
