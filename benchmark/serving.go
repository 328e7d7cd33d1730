package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/netserve"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/workload"
)

// serveWindow is the latency window of the in-process server: netserve's
// own default, so serve-warm and remote-warm run the same serving layer.
const serveWindow = 1 << 20

// served is one serving stack over a fresh clone: a sideways engine behind
// serve (in process) or behind netserve and a client (remote), pre-cracked
// by running every pool query once through the stack's front door.
type served struct {
	bare engine.Engine // the sideways engine under everything
	srv  *serve.Server
	net  *netserve.Server
	cl   *client.Client
	reg  *obs.Registry // nil unless the pass is traced

	front   target        // the client-visible boundary
	first   engine.Result // answer of the first query on the untouched engine
	setupNs int64         // clone, open and pre-cracking
	failed  int           // pre-crack queries that failed
}

// reg, when not nil, is handed to every layer's Options.Metrics: that is
// what tracing costs the serving path.
func (b *bench) openServed(remote bool, pool []engine.Query, reg *obs.Registry) (*served, error) {
	t0 := time.Now()
	s := &served{bare: engine.New(engine.Sideways, cloneRelation(b.base)), reg: reg}
	if remote {
		var err error
		s.net, err = netserve.Listen("127.0.0.1:0", s.bare, netserve.Options{Metrics: s.reg})
		if err != nil {
			return nil, err
		}
		s.cl, err = client.Dial(s.net.Addr().String(), client.Options{Conns: 2, Metrics: s.reg})
		if err != nil {
			s.net.Close()
			return nil, err
		}
		s.front = clientTarget(s.cl)
	} else {
		s.srv = serve.New(s.bare, serve.Options{LatencyWindow: serveWindow, Metrics: s.reg})
		s.front = serveTarget(s.srv)
	}
	for i, q := range pool {
		res, _, err := s.front.query(q)
		if i == 0 {
			s.first = res
		}
		if err != nil {
			s.failed++
		}
	}
	s.setupNs = int64(time.Since(t0))
	return s, nil
}

// shared returns the wrapped engine every request executes against.
func (s *served) shared() engine.Engine {
	if s.net != nil {
		return s.net.Engine()
	}
	return s.srv.Engine()
}

func (s *served) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.net != nil {
		s.net.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

func serveTarget(srv *serve.Server) target {
	e := srv.Engine()
	return target{layer: "serve.Do", query: srv.Do, insert: e.Insert, delete: e.Delete}
}

// clientTarget is the remote front door; remote-warm only queries.
func clientTarget(cl *client.Client) target {
	return target{layer: "client.Query", query: cl.Query}
}

// warmPool draws the serving workloads' query pool: poolSize narrow T1
// queries inside the lower half of A's domain.
func (b *bench) warmPool() []engine.Query {
	g := workload.New(int64(b.cfg.rows), b.streamSeed("pool", 0))
	pool := make([]engine.Query, poolSize)
	for i := range pool {
		pool[i] = narrowT1(g, 1, int64(b.cfg.rows)/2)
	}
	return pool
}

// openServedRepeated builds the stack setupRepeats times, each from a heap
// handed back to the OS, so that set-up time is a median rather than a
// single draw, and returns the last instance for the timed section.
func (b *bench) openServedRepeated(r *result, remote bool, pool []engine.Query) (*served, error) {
	var setupS []float64
	oracle := engine.NewScan(b.base)
	want, _ := oracle.Query(pool[0])
	for i := 0; ; i++ {
		freshHeap()
		var reg *obs.Registry
		if b.tr != nil {
			reg = obs.NewRegistry() // one registry serves one server
		}
		s, err := b.openServed(remote, pool, reg)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, float64(s.setupNs)/1e9)
		r.Attempted += len(pool)
		r.fault(s.failed, "pre-crack query failed")
		if !sameAnswer(s.first, want, pool[0].Projs) {
			r.fault(1, "first query's answer differs from the scan oracle")
		}
		if i == setupRepeats-1 {
			r.e2e("setup_s", median(b.datagenS)+median(setupS), len(setupS))
			return s, nil
		}
		s.close()
	}
}

// loopOut is what one closed-loop client measured.
type loopOut struct {
	lat       []uint32 // ns per successful op, saturating at ~4.3 s
	attempted int
	queries   int // of attempted
	failed    int
	kept      []engine.Result // latest sampled result per pool index
	has       []bool
	tr        *tracer // the client's own span buffer in a traced pass
}

func sat32(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// maxOpsPerSecond is a rate no client here approaches.
const maxOpsPerSecond = 1.5e6

// warmLoopOut preallocates for maxOpsPerSecond, so the sample slice does not
// grow inside the timed section.
func (b *bench) warmLoopOut(d time.Duration) *loopOut {
	return b.newLoopOut(int(d.Seconds()*maxOpsPerSecond) + 1024)
}

// newLoopOut preallocates for ops operations.
func (b *bench) newLoopOut(ops int) *loopOut {
	out := &loopOut{
		lat:  make([]uint32, 0, ops),
		kept: make([]engine.Result, poolSize),
		has:  make([]bool, poolSize),
	}
	if b.tr != nil {
		out.tr = newTracer(b.tr.workload)
		out.tr.t0 = b.tr.t0
	}
	return out
}

// warmLoop is a closed-loop client over the pool: the next query goes out
// when the previous one has returned, until the deadline. Every
// oracleEvery-th op keeps its result (and, traced, its span).
func warmLoop(t target, pool []engine.Query, offset int, deadline time.Time, out *loopOut) {
	for i := offset; ; i++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		idx := i % len(pool)
		res, _, err := t.query(pool[idx])
		d := time.Since(t0)
		out.attempted++
		out.queries++
		if err != nil {
			out.failed++
			continue
		}
		out.lat = append(out.lat, sat32(d))
		if out.attempted%oracleEvery == 1 {
			out.kept[idx], out.has[idx] = res, true
			out.tr.add(t.layer, t.parent, i, t0, int64(d))
		}
	}
}

// timedClients runs the loops concurrently against one deadline and
// returns the wall time until the last of them finished.
func timedClients(d time.Duration, loops ...func(deadline time.Time)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(deadline)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// checkPool compares the warm clients' sampled results with the oracle.
// The pool's ranges lie in the half of the domain no workload writes to,
// so the pristine relation is the oracle for them throughout.
func (b *bench) checkPool(r *result, pool []engine.Query, outs ...*loopOut) {
	oracle := engine.NewScan(b.base)
	mismatches := 0
	for idx, q := range pool {
		var want engine.Result
		asked := false
		for _, out := range outs {
			if !out.has[idx] {
				continue
			}
			if !asked {
				want, _ = oracle.Query(q)
				asked = true
			}
			if !sameAnswer(out.kept[idx], want, q.Projs) {
				mismatches++
			}
		}
	}
	r.fault(mismatches, "warm answer differs from the scan oracle")
}

// timedSection is the state around a two-client timed section: counters
// read before it, so that what it reports is the section's own.
type timedSection struct {
	s      *served
	kernel engine.KernelReport
	conc   engine.ConcStats
	mem    *memMark
	frames float64 // netserve's registry counters, traced remote passes only
	bytes  float64
}

func beginTimed(s *served) *timedSection {
	ts := &timedSection{s: s}
	ts.kernel, _ = engine.KernelReportOf(s.shared())
	ts.conc, _ = engine.ConcStatsOf(s.shared())
	if s.reg != nil && s.net != nil {
		ts.frames = registryValue(s.reg, "crack_net_frames_written_total")
		ts.bytes = registryValue(s.reg, "crack_net_bytes_written_total")
	}
	runtime.GC()
	ts.mem = markMem()
	return ts
}

// end reports what both serving workloads share. readers are the clients
// whose warm queries make up query_p50_us/p99_us; all is every client.
func (ts *timedSection) end(b *bench, r *result, wall time.Duration, readers []*loopOut, others ...*loopOut) {
	all := append(slices.Clone(readers), others...)
	ops, queries, busyNs := 0, 0, int64(0)
	var lat []uint32
	for _, out := range all {
		ops += len(out.lat)
		queries += out.queries
		r.Attempted += out.attempted
		r.fault(out.failed, "operation failed")
	}
	for _, out := range readers {
		lat = append(lat, out.lat...)
		for _, l := range out.lat {
			busyNs += int64(l)
		}
	}
	ts.mem.report(r, ops)
	r.e2e("ops_per_s", float64(ops)/wall.Seconds(), ops)
	reportLatency(r, "query", lat)
	if len(lat) >= 10*minTailSamples {
		r.layer("serve.reader_p999_us", float64(percentile(lat, 99.9))/1e3)
	}

	after, _ := engine.KernelReportOf(ts.s.shared())
	kernelCounts(r, kernelDelta(after, ts.kernel), after.Pieces, queries)
	inspectSideways(ts.s.bare, r)
	conc, _ := engine.ConcStatsOf(ts.s.shared())
	r.layer("engine.concurrent.reader_waits", float64(conc.ReaderWaits-ts.conc.ReaderWaits))
	if busyNs > 0 {
		r.layer("engine.concurrent.reader_wait_frac", float64(conc.ReaderWait-ts.conc.ReaderWait)/float64(busyNs))
	}
	var st serve.Stats
	if ts.s.net != nil {
		st = ts.s.net.Stats()
	} else {
		st = ts.s.srv.Stats()
	}
	r.layer("serve.sheds", float64(st.Sheds))
	r.layer("serve.errors", float64(st.Errors))
	if ts.s.reg != nil && ts.s.net != nil {
		q := float64(max(queries, 1))
		r.layer("netserve.frames_per_query", (registryValue(ts.s.reg, "crack_net_frames_written_total")-ts.frames)/q)
		r.layer("netserve.bytes_written_per_query", (registryValue(ts.s.reg, "crack_net_bytes_written_total")-ts.bytes)/q)
	}
	if ts.s.cl != nil {
		c := ts.s.cl.Counters()
		r.layer("client.retries", float64(c.Retries))
		r.layer("client.redials", float64(c.Redials))
		r.layer("client.hedges", float64(c.Hedges))
	}
	for _, out := range all {
		if out.tr != nil {
			b.tr.spans = append(b.tr.spans, out.tr.spans...)
		}
	}
}

// runWarm is serve-warm and remote-warm: two closed-loop clients over the
// pre-cracked pool, in process or over loopback TCP.
func (b *bench) runWarm(r *result, remote bool) *served {
	pool := b.warmPool()
	s, err := b.openServedRepeated(r, remote, pool)
	if err != nil {
		r.fault(1, "serving stack did not open: "+err.Error())
		return nil
	}
	client := func(c int, out *loopOut) func(time.Time) {
		return func(deadline time.Time) { warmLoop(s.front, pool, c*poolSize/2, deadline, out) }
	}
	d := b.cfg.warmup()
	timedClients(d, client(0, b.warmLoopOut(d)), client(1, b.warmLoopOut(d)))

	d = b.cfg.duration()
	outs := []*loopOut{b.warmLoopOut(d), b.warmLoopOut(d)}
	ts := beginTimed(s)
	wall := timedClients(d, client(0, outs[0]), client(1, outs[1]))
	ts.end(b, r, wall, outs)
	b.checkPool(r, pool, outs...)
	return s
}

func runServeWarm(b *bench, r *result) {
	if s := b.runWarm(r, false); s != nil {
		s.close()
	}
}

func runRemoteWarm(b *bench, r *result) {
	if s := b.runWarm(r, true); s != nil {
		s.close()
	}
}

// churnStream pre-generates the churner's paced ops: a cold narrow T1
// query, an insert and a delete in turn, all in the upper half of A's
// domain, which the warm pool never reads.
func (b *bench) churnStream(n int) []op {
	rows := int64(b.cfg.rows)
	g := workload.New(rows, b.streamSeed("churn", 0))
	live := newLiveKeys(b.base, rows/2+1, rows)
	ops := make([]op, n)
	for i := range ops {
		switch i % 3 {
		case 0:
			ops[i] = op{kind: opQuery, q: narrowT1(g, rows/2+1, rows)}
		case 1:
			ops[i] = live.insertOp(g, rows/2+1, rows)
		case 2:
			ops[i] = live.deleteOp(g)
		}
	}
	return ops
}

// churnOut is what the paced churner measured.
type churnOut struct {
	loopOut
	done  int      // ops of the stream it got through
	late  []uint32 // ns behind schedule at each op's start
	keptQ []kept
}

// churnLoop runs ops on an open-loop schedule, one per churnPeriod. An op
// is timed from when it was due, so time spent waiting behind an earlier
// slow op counts; how late each op started is recorded too.
func churnLoop(t target, ops []op, deadline time.Time, out *churnOut) {
	start := time.Now()
	for i := range ops {
		due := start.Add(time.Duration(i) * churnPeriod)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		out.late = append(out.late, sat32(t0.Sub(due)))
		out.attempted++
		out.done = i + 1
		o := &ops[i]
		ok := true
		switch o.kind {
		case opQuery:
			res, _, err := t.query(o.q)
			if ok = err == nil; ok && out.queries%oracleEvery == 0 {
				out.keptQ = append(out.keptQ, kept{at: i, res: res})
			}
			out.queries++
		case opInsert:
			ok = t.insert(o.vals...) == o.key
		case opDelete:
			t.delete(o.key)
		}
		if !ok {
			out.failed++
			continue
		}
		d := time.Since(due)
		out.lat = append(out.lat, sat32(d))
		if i%oracleEvery == 0 {
			out.tr.add(t.layer, t.parent, i, due, int64(d))
		}
	}
}

// runServeChurn is the reader-beside-a-writer workload.
func runServeChurn(b *bench, r *result) {
	pool := b.warmPool()
	s, err := b.openServedRepeated(r, false, pool)
	if err != nil {
		r.fault(1, "serving stack did not open: "+err.Error())
		return
	}
	defer s.close()
	d := b.cfg.warmup()
	timedClients(d, func(deadline time.Time) { warmLoop(s.front, pool, 0, deadline, b.warmLoopOut(d)) })

	d = b.cfg.duration()
	ops := b.churnStream(int(d/churnPeriod) + 1)
	reader := b.warmLoopOut(d)
	churner := &churnOut{
		loopOut: *b.newLoopOut(len(ops)),
		late:    make([]uint32, 0, len(ops)),
		keptQ:   make([]kept, 0, len(ops)/oracleEvery+1),
	}
	ts := beginTimed(s)
	wall := timedClients(d,
		func(deadline time.Time) { warmLoop(s.front, pool, 0, deadline, reader) },
		func(deadline time.Time) { churnLoop(s.front, ops, deadline, churner) })
	ts.end(b, r, wall, []*loopOut{reader}, &churner.loopOut)
	slices.Sort(churner.late)
	r.layer("serve.churn_late_p99_us", float64(percentile(churner.late, 99))/1e3)

	b.checkPool(r, pool, reader)
	oracle := engine.NewScan(cloneRelation(b.base))
	r.fault(checkStream(oracle, ops[:churner.done], churner.keptQ), "churn answer differs from the scan oracle")
	all := everything(b.cfg.rows)
	got, _, err := s.front.query(all)
	want, _ := oracle.Query(all)
	if err != nil || !sameAnswer(got, want, all.Projs) {
		r.fault(1, "live tuples differ from the oracle after the churn")
	}
}
