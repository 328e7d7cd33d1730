package engine

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// guardCase is one way to put an engine behind the RWMutex probe/execute
// guard. The contract tests below run over all of them: the durable engine
// embeds the Concurrent guard, so whatever holds for one must hold for the
// other. open builds the engine under pol, the one option both take.
type guardCase struct {
	name string
	open func(t *testing.T, kind Kind, rel *store.Relation, pol crack.Policy) Engine
}

func guardCases() []guardCase {
	return []guardCase{
		{"concurrent", func(_ *testing.T, kind Kind, rel *store.Relation, pol crack.Policy) Engine {
			return Concurrent(NewWith(kind, rel, Options{Policy: pol}))
		}},
		{"durable", func(t *testing.T, kind Kind, rel *store.Relation, pol crack.Policy) Engine {
			e, err := OpenDurable(kind, rel, t.TempDir(), DurableOptions{Sync: wal.SyncNone, Policy: pol})
			if err != nil {
				t.Fatalf("open durable: %v", err)
			}
			t.Cleanup(func() { CloseDurable(e) })
			return e
		}},
	}
}

// The concurrency property test: N goroutines fire a mixed
// select/insert/delete workload through one shared Concurrent(e). Each
// goroutine owns a disjoint value band (both in the base data and in its
// updates), so every query's correct answer depends only on its own
// goroutine's operation history — which lets the concurrent results be
// checked, per query, against a sequential replay of that goroutine's
// operations on a clone. Run with -race in CI; that is what makes the
// RWMutex probe/execute protocol trustworthy.

const (
	bandWidth   = 1_000 // value band per goroutine
	bandRows    = 300   // base rows per band
	opsPerGor   = 40
	nGoroutines = 4
)

type concOp struct {
	kind int // 0 query, 1 insert, 2 delete
	q    Query
	vals []Value // insert: values in attribute order (A, B)
	del  int     // delete: index into the goroutine's live-key list
}

// bandOps generates goroutine g's deterministic operation sequence, every
// value confined to g's band.
func bandOps(g int, seed int64) []concOp {
	rng := rand.New(rand.NewSource(seed + int64(g)))
	lo := int64(g * bandWidth)
	ops := make([]concOp, opsPerGor)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 6: // query; both predicates stay strictly inside the band
			qlo := lo + rng.Int63n(bandWidth-250)
			q := Query{
				Preds: []AttrPred{{Attr: "A", Pred: store.Range(qlo, qlo+1+rng.Int63n(200))}},
				Projs: []string{"B"},
			}
			if rng.Intn(3) == 0 { // sometimes a second in-band predicate
				blo := lo + rng.Int63n(bandWidth-450)
				q.Preds = append(q.Preds, AttrPred{Attr: "B", Pred: store.Range(blo, blo+400)})
				q.Disjunctive = rng.Intn(2) == 0
			}
			ops[i] = concOp{kind: 0, q: q}
		case r < 8: // insert
			ops[i] = concOp{kind: 1, vals: []Value{lo + rng.Int63n(bandWidth), lo + rng.Int63n(bandWidth)}}
		default: // delete
			ops[i] = concOp{kind: 2, del: rng.Intn(1 << 20)}
		}
	}
	return ops
}

// buildBandedRel lays out nGoroutines*bandRows rows, band by band, so
// goroutine g owns base keys [g*bandRows, (g+1)*bandRows).
func buildBandedRel(seed int64) *store.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := store.NewRelation("R", "A", "B")
	for g := 0; g < nGoroutines; g++ {
		lo := int64(g * bandWidth)
		for i := 0; i < bandRows; i++ {
			rel.AppendRow(lo+rng.Int63n(bandWidth), lo+rng.Int63n(bandWidth))
		}
	}
	return rel
}

// runOps applies g's operations to e and returns the result multiset of
// every query (projection values sorted, plus the result count).
func runOps(e Engine, g int, ops []concOp) [][]Value {
	keys := make([]int, 0, bandRows+opsPerGor)
	for i := 0; i < bandRows; i++ {
		keys = append(keys, g*bandRows+i)
	}
	var results [][]Value
	for _, op := range ops {
		switch op.kind {
		case 0:
			res, _ := e.Query(op.q)
			vals := append([]Value(nil), res.Cols["B"]...)
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			vals = append(vals, Value(res.N))
			results = append(results, vals)
		case 1:
			keys = append(keys, e.Insert(op.vals...))
		case 2:
			if len(keys) == 0 {
				continue
			}
			i := op.del % len(keys)
			e.Delete(keys[i])
			keys = append(keys[:i], keys[i+1:]...)
		}
	}
	return results
}

func valsEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConcurrentMatchesSequentialReplay(t *testing.T) {
	const seed = 99
	for _, kind := range Kinds() {
		for _, gc := range guardCases() {
			kind, gc := kind, gc
			t.Run(kind.String()+"/"+gc.name, func(t *testing.T) {
				base := buildBandedRel(seed)
				shared := gc.open(t, kind, cloneRel(base), crack.Policy{})

				ops := make([][]concOp, nGoroutines)
				for g := range ops {
					ops[g] = bandOps(g, seed+7)
				}

				got := make([][][]Value, nGoroutines)
				var wg sync.WaitGroup
				for g := 0; g < nGoroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						got[g] = runOps(shared, g, ops[g])
					}(g)
				}
				wg.Wait()

				// Sequential replay: each goroutine's operations alone on a
				// fresh clone must produce identical per-query multisets.
				for g := 0; g < nGoroutines; g++ {
					want := runOps(New(kind, cloneRel(base)), g, ops[g])
					if len(want) != len(got[g]) {
						t.Fatalf("goroutine %d: %d results, want %d", g, len(got[g]), len(want))
					}
					for qi := range want {
						if !valsEqual(want[qi], got[g][qi]) {
							t.Fatalf("goroutine %d query %d: concurrent result %v != sequential replay %v",
								g, qi, got[g][qi], want[qi])
						}
					}
				}
			})
		}
	}
}

// TestConcurrentProbeConsistency checks the protocol contract on a live
// engine: once a query has run, QueryRO must accept an identical repeat and
// agree with Query.
func TestConcurrentProbeConsistency(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			rel := buildRel(rng, 1000, []string{"A", "B"}, 400)
			e := New(kind, rel)
			q := Query{
				Preds: []AttrPred{{Attr: "A", Pred: store.Range(50, 120)}},
				Projs: []string{"B"},
			}
			first, _ := e.Query(q)
			ro, _, ok := e.QueryRO(q)
			if !ok {
				t.Fatalf("%v: QueryRO refused an aligned repeat", kind)
			}
			if ro.N != first.N {
				t.Fatalf("%v: QueryRO N=%d, Query N=%d", kind, ro.N, first.N)
			}
			a := append([]Value(nil), first.Cols["B"]...)
			b := append([]Value(nil), ro.Cols["B"]...)
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			if !valsEqual(a, b) {
				t.Fatalf("%v: QueryRO multiset differs from Query", kind)
			}

			// An update relevant to the range must make QueryRO refuse —
			// except for the scan engine, whose inserts land directly in
			// the base column with nothing pending to merge.
			e.Insert(Value(60), Value(60))
			if _, _, ok := e.QueryRO(q); kind != Scan && ok {
				t.Fatalf("%v: QueryRO missed a pending insertion in range", kind)
			}
			res, _ := e.Query(q)
			if res.N != first.N+1 {
				t.Fatalf("%v: post-insert N=%d, want %d", kind, res.N, first.N+1)
			}
			if _, _, ok := e.QueryRO(q); !ok {
				t.Fatalf("%v: QueryRO still refuses after the merge", kind)
			}
		})
	}
}

// TestConcurrentWrapIdempotent: a guarded engine reports its guard and
// preserves its kind, and every wrapper leaves it alone — a second lock
// over an engine that already locks would serialize it.
func TestConcurrentWrapIdempotent(t *testing.T) {
	for _, gc := range guardCases() {
		t.Run(gc.name, func(t *testing.T) {
			e := gc.open(t, Sideways, buildBandedRel(5), crack.Policy{})
			if ReportOf(e).Readers == nil {
				t.Fatal("guarded engine's report has no Readers section")
			}
			if e.Kind() != Sideways {
				t.Fatalf("wrapper reports kind %v, want %v", e.Kind(), Sideways)
			}
			if Concurrent(e) != e {
				t.Fatal("Concurrent re-wrapped an already-shared engine")
			}
			if Snapshot(e) != e {
				t.Fatal("Snapshot re-wrapped an already-shared engine")
			}
		})
	}
}

// TestConcurrentPanicReleasesGuard: a malformed query panics inside the
// guard (on Scan, in the read-only fast path); the guard's locks are
// released, so a later write does not block forever.
func TestConcurrentPanicReleasesGuard(t *testing.T) {
	for _, gc := range guardCases() {
		for _, kind := range Kinds() {
			t.Run(gc.name+"/"+kind.String(), func(t *testing.T) {
				e := gc.open(t, kind, buildBandedRel(5), crack.Policy{})
				func() {
					defer func() { recover() }()
					e.Query(Query{Preds: []AttrPred{{Attr: "Z", Pred: store.Range(0, 10)}}, Projs: []string{"B"}})
				}()
				done := make(chan struct{})
				go func() {
					defer close(done)
					e.Insert(1, 2)
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("Insert blocked behind the lock a panicking query left held")
				}
			})
		}
	}
	// A WAL write that panics below the durable engine's write lock, and a
	// WAL fsync that panics in the group commit's elected waiter.
	for _, c := range []struct {
		name string
		mode wal.SyncMode
		sync bool // panic in Sync, not Write
	}{{"durable-write", wal.SyncNone, false}, {"durable-sync", wal.SyncGroup, true}} {
		for _, kind := range Kinds() {
			t.Run(c.name+"/"+kind.String(), func(t *testing.T) {
				var armed atomic.Bool
				e, err := OpenDurable(kind, buildBandedRel(5), t.TempDir(), DurableOptions{
					Sync: c.mode,
					Wrap: func(f wal.File) wal.File { return panicOnce{f, &armed, c.sync} },
				})
				if err != nil {
					t.Fatalf("open durable: %v", err)
				}
				armed.Store(true)
				func() {
					defer func() { recover() }()
					e.Insert(1, 2)
				}()
				if armed.Load() {
					t.Fatal("the WAL file did not panic")
				}
				done := make(chan int)
				go func() { done <- e.Insert(3, 4) }()
				select {
				case key := <-done:
					if c.sync && key >= 0 {
						t.Fatalf("Insert acked key %d after a panicking fsync", key)
					}
					CloseDurable(e)
				case <-time.After(5 * time.Second):
					t.Fatal("Insert blocked behind a panicking WAL write or fsync")
				}
			})
		}
	}
}

// panicOnce is a WAL file whose first Write (or, with sync, first Sync)
// after arming panics.
type panicOnce struct {
	wal.File
	armed *atomic.Bool
	sync  bool
}

func (f panicOnce) Write(p []byte) (int, error) {
	if !f.sync && f.armed.CompareAndSwap(true, false) {
		panic("wal: injected write panic")
	}
	return f.File.Write(p)
}

func (f panicOnce) Sync() error {
	if f.sync && f.armed.CompareAndSwap(true, false) {
		panic("wal: injected fsync panic")
	}
	return f.File.Sync()
}

// TestConcurrentOneCrackPaysForAllWaiters: many goroutines issue the same
// cold query at once. Whoever takes the write lock first cracks; everyone
// queued behind it finds the range cracked on the double-check and runs
// read-only — so the kernel does exactly one query's worth of work, and a
// durable engine records exactly one tape entry.
func TestConcurrentOneCrackPaysForAllWaiters(t *testing.T) {
	q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(300, 900)}}, Projs: []string{"B"}}
	for _, gc := range guardCases() {
		t.Run(gc.name, func(t *testing.T) {
			rel := buildBandedRel(13)
			alone := New(SelCrack, cloneRel(rel))
			ref, _ := alone.Query(q)
			want, _ := KernelReportOf(alone)

			e := gc.open(t, SelCrack, cloneRel(rel), crack.Policy{})
			const waiters = 8
			var wg sync.WaitGroup
			counts := make([]int, waiters)
			for g := 0; g < waiters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res, _ := e.Query(q)
					counts[g] = res.N
				}(g)
			}
			wg.Wait()
			for g, n := range counts {
				if n != ref.N {
					t.Fatalf("waiter %d: N=%d, want %d", g, n, ref.N)
				}
			}
			if got, _ := KernelReportOf(e); got != want {
				t.Fatalf("%d waiters did kernel work %+v, one query alone does %+v", waiters, got, want)
			}
			if ds, ok := DurStatsOf(e); ok && ds.TapeLen != 1 {
				t.Fatalf("tape recorded %d entries for one crack", ds.TapeLen)
			}
		})
	}
}

// TestConcurrentReaderWaitStats: a reader that finds the guard write-locked
// is counted in ConcStats — for the durable engine exactly as for
// Concurrent, because it is the same guard.
func TestConcurrentReaderWaitStats(t *testing.T) {
	q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(300, 900)}}, Projs: []string{"B"}}
	for _, gc := range guardCases() {
		t.Run(gc.name, func(t *testing.T) {
			e := gc.open(t, SelCrack, buildBandedRel(21), crack.Policy{})
			var mu *sync.RWMutex
			switch w := e.(type) {
			case *rwEngine:
				mu = &w.mu
			case *durEngine:
				mu = &w.mu
			}
			// A scrape that finds the guard write-locked waits like a reader
			// but is not one: it must not count as contention.
			scraped := make(chan struct{})
			func() {
				mu.Lock()
				defer mu.Unlock()
				go func() { ReportOf(e); close(scraped) }()
				time.Sleep(2 * time.Millisecond)
			}()
			<-scraped
			if cs, ok := ConcStatsOf(e); !ok || cs.ReaderWaits != 0 {
				t.Fatalf("fresh engine after a blocked scrape: ConcStats ok=%v %+v", ok, cs)
			}
			// The reader must reach the lock while the writer holds it. There
			// is no event for "blocked in RLock", so yield to it and retry
			// until a blocked acquisition has been observed.
			for attempt := 0; ; attempt++ {
				started, done := make(chan struct{}), make(chan struct{})
				func() {
					mu.Lock()
					defer mu.Unlock()
					go func() {
						close(started)
						e.QueryRO(q)
						close(done)
					}()
					<-started
					runtime.Gosched()
				}()
				<-done
				cs, _ := ConcStatsOf(e)
				if cs.ReaderWaits > 0 {
					if cs.ReaderWait <= 0 {
						t.Fatalf("blocked acquisition recorded no wait time: %+v", cs)
					}
					return
				}
				if attempt == 1000 {
					t.Fatal("reader never observed blocked behind the writer")
				}
			}
		})
	}
}

// TestConcurrentSelCrackViewsUnderWriter: a SelCrack engine's read-only
// answer is built straight off its cracker column's view, with no copy of
// the keys, under the guard's read lock. One-predicate QueryROs, with and
// without a projection, run beside a writer that inserts, deletes and
// cracks the other half of the domain; every answer equals Scan's. Under
// -race, a view read while a crack moved it would fail here.
func TestConcurrentSelCrackViewsUnderWriter(t *testing.T) {
	const (
		rows, domain = 20000, 1000
		readers      = 2
		queries      = 300
	)
	base := buildRel(rand.New(rand.NewSource(21)), rows, []string{"A", "B"}, domain)
	oracle := NewScan(cloneRel(base))
	e := Concurrent(New(SelCrack, cloneRel(base)))

	// Readers query the lower half of A's domain, which the writer never
	// touches, so Scan over the base answers every read exactly.
	type read struct {
		q    Query
		want []string
	}
	reads := make([][]read, readers)
	for g := range reads {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		for i := 0; i < queries; i++ {
			lo := rng.Int63n(domain/2 - 50)
			q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+1+rng.Int63n(50))}}}
			if i%2 == 0 {
				q.Projs = []string{"B"}
			}
			res, _ := oracle.Query(q)
			reads[g] = append(reads[g], read{q, canonRows(res, q.Projs)})
		}
	}
	var upper []int
	for k, v := range base.MustColumn("A").Vals {
		if v >= domain/2 {
			upper = append(upper, k)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-done:
				return
			default:
			}
			switch rng.Intn(3) {
			case 0:
				upper = append(upper, e.Insert(domain/2+rng.Int63n(domain/2), rng.Int63n(domain)))
			case 1:
				i := rng.Intn(len(upper))
				e.Delete(upper[i])
				upper[i] = upper[len(upper)-1]
				upper = upper[:len(upper)-1]
			case 2:
				lo := domain/2 + rng.Int63n(domain/2)
				e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+20)}}, Projs: []string{"B"}})
			}
		}
	}()
	var readWG sync.WaitGroup
	for g := range reads {
		readWG.Add(1)
		go func(g int) {
			defer readWG.Done()
			for i, r := range reads[g] {
				res, _, ok := e.QueryRO(r.q)
				if !ok {
					res, _ = e.Query(r.q)
				}
				if got := canonRows(res, r.q.Projs); !slices.Equal(got, r.want) {
					t.Errorf("reader %d query %d (%v, read-only %v): %d rows, scan %d", g, i, r.q.Preds, ok, len(got), len(r.want))
					return
				}
			}
		}(g)
	}
	readWG.Wait()
	close(done)
	wg.Wait()
}
