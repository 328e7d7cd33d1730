package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"time"

	"crackstore"
	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/shard"
	"crackstore/internal/store"
	"crackstore/internal/wal"
	"crackstore/internal/wire"
	"crackstore/internal/workload"
)

// The ledger prices each layer from outside: the same warm pool is run,
// by one goroutine, through each boundary of the stack in turn, and a
// layer's self time is its boundary's mean minus the boundary below.

// registryValue reads one counter or gauge out of a registry's JSON
// exposition, 0 if it is not there.
func registryValue(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0
	}
	var families map[string]struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(buf.Bytes(), &families); err != nil {
		return 0
	}
	return families[name].Value
}

// boundary is one layer boundary of a warm stack: call answers one pool
// query through it and reports whether it succeeded.
type boundary struct {
	layer, parent string
	call          func(q engine.Query) bool
}

// poolMeans prices boundaries on the warm pool with one goroutine. After
// one untimed pass each, it makes cfg.poolPasses() passes, and in every
// pass takes the boundaries in turn, so that a drift in the machine's
// speed falls on all of them alike and cancels in their differences. It
// returns, per boundary, the median over passes of the pass's mean ns per
// call — a garbage collection or a descheduling lands in a few passes and
// the median leaves those out — and the share of calls that succeeded. The
// first timed pass is recorded as spans.
func (b *bench) poolMeans(pool []engine.Query, bs ...boundary) (ns, okFrac []float64) {
	passNs := make([][]float64, len(bs))
	oks := make([]int, len(bs))
	passes := b.cfg.poolPasses()
	for pass := -1; pass < passes; pass++ {
		for k, bd := range bs {
			var total time.Duration
			for i, q := range pool {
				t0 := time.Now()
				ok := bd.call(q)
				d := time.Since(t0)
				total += d
				if ok && pass >= 0 {
					oks[k]++
				}
				if pass == 0 {
					b.tr.add(bd.layer, bd.parent, i, t0, int64(d))
				}
			}
			if pass >= 0 {
				passNs[k] = append(passNs[k], float64(total)/float64(len(pool)))
			}
		}
	}
	for k := range bs {
		ns = append(ns, median(passNs[k]))
		okFrac = append(okFrac, float64(oks[k])/float64(passes*len(pool)))
	}
	return ns, okFrac
}

func queryCall(e engine.Engine) func(engine.Query) bool {
	return func(q engine.Query) bool { e.Query(q); return true }
}

func queryROCall(e engine.Engine) func(engine.Query) bool {
	return func(q engine.Query) bool { _, _, ok := e.QueryRO(q); return ok }
}

func doCall(srv *serve.Server) func(engine.Query) bool {
	return func(q engine.Query) bool { _, _, err := srv.Do(q); return err == nil }
}

// warmStack lists the boundaries of s's warm path from the map layer up to
// the shared wrapper and then front, the boundary the workload's clients
// call; reportStack turns their means into self times, each boundary's
// mean minus the one below.
func warmStack(s *served, front ...boundary) []boundary {
	st := crackstore.SidewaysStore(s.bare)
	return append([]boundary{
		{"sideways.MultiSelectRO", "engine.QueryRO", func(q engine.Query) bool {
			_, ok := st.MultiSelectRO(q.Preds, q.Projs, q.Disjunctive)
			return ok
		}},
		{"engine.QueryRO", "engine.concurrent.Query", queryROCall(s.bare)},
		{"engine.concurrent.Query", "serve.Do", queryCall(s.shared())},
	}, front...)
}

func reportStack(r *result, ns, okFrac []float64) {
	r.layer("sideways.multiselect_ns", ns[0])
	r.layer("sideways.ro_hit_frac", okFrac[0])
	r.layer("engine.query_ns", ns[1])
	r.layer("engine.self_ns", ns[1]-ns[0])
	r.layer("engine.concurrent.self_ns", ns[2]-ns[1])
	r.layer("serve.self_ns", ns[3]-ns[2])
}

// precrack runs every pool query once so a stack answers the pool warm.
func precrack(e engine.Engine, pool []engine.Query) {
	for _, q := range pool {
		e.Query(q)
	}
}

func ledgerServeWarm(b *bench, r *result) {
	pool := b.warmPool()
	s, err := b.openServed(false, pool, nil)
	if err != nil {
		r.fault(1, "ledger stack did not open: "+err.Error())
		return
	}
	defer s.close()

	// The wrappers the workload does not run on, each over its own
	// pre-cracked clone, priced against the same bare engine: what a stack
	// built on them would add.
	dir, err := b.scratchDir("ledger-durable")
	if err != nil {
		r.fault(1, "ledger data dir: "+err.Error())
		return
	}
	defer os.RemoveAll(dir)
	dur, err := engine.OpenDurable(engine.Sideways, cloneRelation(b.base), dir, engine.DurableOptions{Sync: wal.SyncNone})
	if err != nil {
		r.fault(1, "ledger durable engine: "+err.Error())
		return
	}
	defer engine.CloseDurable(dur)
	precrack(dur, pool)
	sh := shard.New(engine.Sideways, cloneRelation(b.base), 4, shard.Options{Attr: "A"})
	precrack(sh, pool)

	ns, okFrac := b.poolMeans(pool, warmStack(s,
		boundary{"serve.Do", "", doCall(s.srv)},
		boundary{"engine.durable.Query", "", queryCall(dur)},
		boundary{"shard.Query", "", queryCall(sh)})...)
	reportStack(r, ns, okFrac)
	r.layer("engine.durable.self_ns", ns[4]-ns[1])
	r.layer("shard.self_ns", ns[5]-ns[1])

	// Snapshot serves selection cracking only, so its delta is over a bare
	// SelCrack engine warmed the same way.
	sel, snapped := engine.New(engine.SelCrack, cloneRelation(b.base)), engine.New(engine.SelCrack, cloneRelation(b.base))
	precrack(sel, pool)
	precrack(snapped, pool)
	ns, _ = b.poolMeans(pool,
		boundary{"engine.QueryRO(selcrack)", "engine.snapshot.Query", queryROCall(sel)},
		boundary{"engine.snapshot.Query", "", queryCall(engine.Snapshot(snapped))})
	r.layer("engine.snapshot.self_ns", ns[1]-ns[0])

	var queue time.Duration
	for _, q := range pool {
		var sp serve.SpanTimes
		if _, _, err := s.srv.DoUntilSpans(q, time.Time{}, &sp); err == nil {
			queue += sp.Queue
		}
	}
	r.layer("serve.queue_ns", float64(queue)/float64(len(pool)))
	b.microPieceFor(r, s.bare)
}

func ledgerServeChurn(b *bench, r *result) { b.microCrack(r) }

func ledgerRemoteWarm(b *bench, r *result) {
	pool := b.warmPool()
	s, err := b.openServed(true, pool, nil)
	if err != nil {
		r.fault(1, "ledger stack did not open: "+err.Error())
		return
	}
	defer s.close()
	// netserve keeps its serve.Server to itself; one of the same options
	// over the same shared engine stands in for it.
	srv := serve.New(s.shared(), serve.Options{LatencyWindow: serveWindow})
	defer srv.Close()
	ns, okFrac := b.poolMeans(pool, warmStack(s,
		boundary{"serve.Do", "client.Query", doCall(srv)},
		boundary{"client.Query", "", func(q engine.Query) bool {
			_, _, err := s.cl.Query(q)
			return err == nil
		}})...)
	reportStack(r, ns, okFrac)
	wireNs := b.ledgerWire(r, s.bare, pool)
	r.layer("client.query_ns", ns[4])
	// What is left of a remote query once the engine, the wrapper, serve
	// and the codec are paid for: syscalls, goroutine hand-offs, loopback.
	r.layer("netserve.tcp_sched_ns", ns[4]-ns[3]-wireNs)

	pings := make([]int64, 0, 2000)
	for i := 0; i < cap(pings); i++ {
		t0 := time.Now()
		if err := s.cl.Ping(); err != nil {
			r.fault(1, "ping failed: "+err.Error())
			break
		}
		pings = append(pings, int64(time.Since(t0)))
	}
	slices.Sort(pings)
	r.layer("client.ping_rtt_us", float64(percentile(pings, 50))/1e3)
}

// ledgerWire times the codec standalone over the pool's real requests and
// results and returns the summed mean of its four steps.
func (b *bench) ledgerWire(r *result, e engine.Engine, pool []engine.Query) (sumNs float64) {
	var enc, dec, renc, rdec time.Duration
	var reqBytes, respBytes int
	var frame []byte
	calls := 0
	for pass := 0; pass <= b.cfg.poolPasses(); pass++ {
		for i, q := range pool {
			// The cost split is left zero: it is a varint of a measured
			// duration, and would make the byte counts inexact.
			res, _, _ := e.QueryRO(q)
			req := wire.Request{ID: uint64(i + 1), Op: wire.OpQuery, Query: q}
			resp := wire.Response{ID: req.ID, Op: wire.OpQuery, Status: wire.StatusOK, Result: res}

			t0 := time.Now()
			frame = wire.AppendRequest(frame[:0], &req)
			t1 := time.Now()
			_, errReq := wire.DecodeRequest(frame[wire.FrameHeader:])
			t2 := time.Now()
			nReq := len(frame)
			frame = wire.AppendResponse(frame[:0], &resp)
			t3 := time.Now()
			_, errResp := wire.DecodeResponse(frame[wire.FrameHeader:])
			t4 := time.Now()
			if errReq != nil || errResp != nil {
				r.fault(1, "wire codec rejected its own frame")
				return 0
			}
			if pass == 0 {
				continue // untimed pass
			}
			enc += t1.Sub(t0)
			dec += t2.Sub(t1)
			renc += t3.Sub(t2)
			rdec += t4.Sub(t3)
			reqBytes += nReq
			respBytes += len(frame)
			calls++
		}
	}
	n := float64(calls)
	r.layer("wire.req_encode_ns", float64(enc)/n)
	r.layer("wire.req_decode_ns", float64(dec)/n)
	r.layer("wire.resp_encode_ns", float64(renc)/n)
	r.layer("wire.resp_decode_ns", float64(rdec)/n)
	r.layer("wire.req_bytes_per_query", float64(reqBytes)/n)
	r.layer("wire.resp_bytes_per_query", float64(respBytes)/n)
	return float64(enc+dec+renc+rdec) / n
}

// Microbenchmarks of single kernel functions: context for the ledger, run
// on the workloads whose time they explain.

const microPreds = 64

// microCrack measures the crack kernel against the memory-bandwidth
// ceiling: CrackRange over a fresh pairs of the relation's A and B columns
// for microPreds fixed-width predicates, per tuple classified; and a plain
// copy of the same two columns, per tuple.
func (b *bench) microCrack(r *result) {
	head, tail := b.base.MustColumn("A").Vals, b.base.MustColumn("B").Vals
	p := crack.NewPairs(head, tail)
	g := workload.New(int64(b.cfg.rows), b.streamSeed("micro-crack", 0))
	var crackNs time.Duration
	for i := 0; i < microPreds; i++ {
		pred := g.Range(0.01)
		t0 := time.Now()
		p.CrackRange(pred)
		crackNs += time.Since(t0)
	}
	if p.Stats.Visited > 0 {
		r.layer("crack.crack_ns_per_tuple", float64(crackNs)/float64(p.Stats.Visited))
	}
	dstH, dstT := make([]store.Value, len(head)), make([]store.Value, len(tail))
	var copies []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		copy(dstH, head)
		copy(dstT, tail)
		copies = append(copies, float64(time.Since(t0))/float64(len(head)))
	}
	r.layer("crack.copy_ns_per_tuple", median(copies))
}

// microRipple measures the ripple kernels on a pairs cracked into about a
// thousand pieces: one batch insert and one batch delete of as many tuples
// as an LFHV batch, per update.
func (b *bench) microRipple(r *result) {
	p := crack.NewPairs(b.base.MustColumn("A").Vals, b.base.MustColumn("B").Vals)
	g := workload.New(int64(b.cfg.rows), b.streamSeed("micro-ripple", 0))
	for i := 0; i < 500; i++ {
		p.CrackRange(g.Range(0.01))
	}
	n := min(workload.LFHV.Volume, p.Len()/2)
	vals, tails := g.Values(n), g.Values(n)
	positions := make([]int, n)
	for i := range positions {
		positions[i] = i * (p.Len() / n)
	}
	t0 := time.Now()
	p.RippleInsertBatch(vals, tails)
	p.RippleDeleteBatch(positions)
	r.layer("crack.ripple_ns_per_update", float64(time.Since(t0))/float64(2*n))
}

// microPieceFor measures the cracker-index lookup on an index with as many
// boundaries as the warm engine's A map has.
func (b *bench) microPieceFor(r *result, warm engine.Engine) {
	st := crackstore.SidewaysStore(warm)
	set := st.SetIfExists("A")
	if set == nil || set.MostAlignedMap() == nil {
		return
	}
	ix := crackindex.New()
	n := 0
	set.MostAlignedMap().Pairs().Idx.Walk(func(bd crackindex.Bound, pos int) {
		ix.Insert(bd, pos)
		n++
	})
	g := workload.New(int64(b.cfg.rows), b.streamSeed("micro-piecefor", 0))
	probes := g.Values(1 << 14)
	t0 := time.Now()
	for _, v := range probes {
		ix.PieceFor(crackindex.Bound{V: v, Incl: true}, b.cfg.rows)
	}
	r.layer("crackindex.piecefor_ns", float64(time.Since(t0))/float64(len(probes)))
}

// microWalCodec measures framing an insert record of the relation's width
// (AppendRecord) and reading it back (Scan: header check, CRC,
// DecodeRecord), per record.
func (b *bench) microWalCodec(r *result) {
	g := workload.New(int64(b.cfg.rows), b.streamSeed("micro-wal", 0))
	rec := wal.Record{Type: wal.RecInsert, Width: len(attrs), Vals: g.Values(len(attrs))}
	const n = 1 << 14
	var buf []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf = wal.AppendRecord(buf[:0], rec)
		valid, err := wal.Scan(buf, func(int64, wal.Record) error { return nil })
		if err != nil || valid != int64(len(buf)) {
			r.fault(1, "wal codec rejected its own record")
			return
		}
	}
	r.layer("wal.codec_ns", float64(time.Since(t0))/n)
}
