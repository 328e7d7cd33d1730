package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// TestSnapshotMatchesSequentialReplay runs the banded concurrency property
// test (see concurrent_test.go) against the Snapshot wrapper: every
// goroutine's concurrent answers must match a sequential replay of its own
// operations. Run with -race.
func TestSnapshotMatchesSequentialReplay(t *testing.T) {
	const seed = 99
	base := buildBandedRel(seed)
	shared := Snapshot(New(SelCrack, cloneRel(base)))
	if _, ok := shared.(*snapEngine); !ok {
		t.Fatalf("Snapshot(SelCrack) built %T, want *snapEngine", shared)
	}

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

	for g := 0; g < nGoroutines; g++ {
		want := runOps(New(SelCrack, cloneRel(base)), g, ops[g])
		if len(want) != len(got[g]) {
			t.Fatalf("goroutine %d: %d results, want %d", g, len(got[g]), len(want))
		}
		for qi := range want {
			if !valsEqual(want[qi], got[g][qi]) {
				t.Fatalf("goroutine %d query %d: snapshot result %v != sequential replay %v",
					g, qi, got[g][qi], want[qi])
			}
		}
	}
}

// TestSnapshotReadersNeverSeeReclaimedState is the snapshot-consistency
// property test: N lock-free readers over static value bands + one writer
// cracking, inserting, and deleting continuously in its own band. Reader
// answers are precomputed (their bands never change), so a reader that
// traverses a version the writer has written into, or a torn one, answers
// wrong; the published counter must show that versions were replaced under
// the readers. Run with -race.
func TestSnapshotReadersNeverSeeReclaimedState(t *testing.T) {
	const seed = 31
	base := buildBandedRel(seed)
	shared := Snapshot(New(SelCrack, cloneRel(base)))
	se := shared.(*snapEngine)

	// Build the reader query set over the static bands 1..n-1 and
	// precompute every expected answer on a sequential clone.
	rng := rand.New(rand.NewSource(seed))
	type check struct {
		q    Query
		want []Value
	}
	ref := New(SelCrack, cloneRel(base))
	var checks []check
	for g := 1; g < nGoroutines; g++ {
		lo := int64(g * bandWidth)
		for i := 0; i < 8; i++ {
			qlo := lo + rng.Int63n(bandWidth-300)
			q := Query{
				Preds: []AttrPred{{Attr: "A", Pred: store.Range(qlo, qlo+1+rng.Int63n(250))}},
				Projs: []string{"B"},
			}
			res, _ := ref.Query(q)
			want := append([]Value(nil), res.Cols["B"]...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			checks = append(checks, check{q: q, want: want})
		}
	}

	// Create the cracker columns before the readers start.
	shared.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 1)}}, Projs: []string{"B"}})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				c := checks[rng.Intn(len(checks))]
				res, _ := shared.Query(c.q)
				got := append([]Value(nil), res.Cols["B"]...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if !valsEqual(got, c.want) {
					t.Errorf("reader answer diverged (written or torn version?): got %v, want %v", got, c.want)
					return
				}
			}
		}(int64(1000 + r))
	}

	// The writer churns band 0: every query cracks fresh ranges, inserts
	// and deletes force pending-update merges — each publish replaces state
	// the readers may still hold.
	writerRng := rand.New(rand.NewSource(77))
	keys := make([]int, 0, bandRows)
	for i := 0; i < bandRows; i++ {
		keys = append(keys, i)
	}
	for i := 0; i < 400; i++ {
		switch writerRng.Intn(5) {
		case 0:
			keys = append(keys, shared.Insert(writerRng.Int63n(bandWidth), writerRng.Int63n(bandWidth)))
		case 1:
			if len(keys) > 0 {
				k := writerRng.Intn(len(keys))
				shared.Delete(keys[k])
				keys = append(keys[:k], keys[k+1:]...)
			}
		default:
			qlo := writerRng.Int63n(bandWidth - 200)
			shared.Query(Query{
				Preds: []AttrPred{{Attr: "A", Pred: store.Range(qlo, qlo+1+writerRng.Int63n(180))}},
				Projs: []string{"B"},
			})
		}
	}
	stop.Store(true)
	wg.Wait()

	st := *se.Report().Snapshot
	if st.Published == 0 {
		t.Fatal("writer published no versions: the test exercised nothing")
	}
}

// TestSnapshotKeepsWarmSelCrackState wraps a warm SelCrack engine that has
// an insert and a delete pending: the first published version keeps the
// cracked layout and both pending updates, and the engine answers what Scan
// answers.
func TestSnapshotKeepsWarmSelCrackState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := buildRel(rng, 2000, []string{"A", "B"}, 1000)
	e, oracle := New(SelCrack, cloneRel(base)), New(Scan, cloneRel(base))
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(1000)
		e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+rng.Int63n(200))}}, Projs: []string{"B"}})
	}
	for _, w := range []Engine{e, oracle} {
		w.Insert(555, 1)
		w.Delete(7)
	}

	snap := Snapshot(e)
	v := (*snap.(*snapEngine).cols.Load())["A"]
	if len(v.pieces) < 2 {
		t.Fatalf("wrapping dropped the cracked layout: %d pieces", len(v.pieces))
	}
	if len(v.ins) != 1 || len(v.del) != 1 {
		t.Fatalf("wrapping kept %d pending insertions and %d deletions, want 1 and 1", len(v.ins), len(v.del))
	}
	if err := checkVersion(snap.(*snapEngine), "A"); err != nil {
		t.Fatalf("published version: %v", err)
	}
	qs := []Query{
		{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 1000)}}, Projs: []string{"A", "B"}},
		{Preds: []AttrPred{{Attr: "A", Pred: store.Point(base.MustColumn("A").Vals[7])}}, Projs: []string{"B"}},
	}
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(1000)
		qs = append(qs, Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+rng.Int63n(300))}}, Projs: []string{"A", "B"}})
	}
	assertAnswerEquivalent(t, "warm snapshot", snap, oracle, qs)
}

// TestSnapshotFallback pins the wrapper contract: SelCrack is wrapped by the
// multi-version engine, already-shared engines pass through unchanged, and
// unsupported kinds degrade to Concurrent.
func TestSnapshotFallback(t *testing.T) {
	rel := buildBandedRel(3)
	if e, ok := Snapshot(New(SelCrack, cloneRel(rel))).(*snapEngine); !ok {
		t.Fatalf("SelCrack snapshot engine not built: %T", e)
	}
	if e := Snapshot(New(Scan, cloneRel(rel))); !guarded(e) {
		t.Fatalf("Scan fallback is not shared-safe: %T", e)
	} else if _, ok := e.(*rwEngine); !ok {
		t.Fatalf("Scan fallback should be Concurrent, got %T", e)
	}
	shared := Concurrent(New(SelCrack, cloneRel(rel)))
	if Snapshot(shared) != shared {
		t.Fatal("Snapshot re-wrapped an already-shared engine")
	}
	snap := Snapshot(New(SelCrack, cloneRel(rel)))
	if Snapshot(snap) != snap {
		t.Fatal("Snapshot is not idempotent")
	}
}

// TestSnapshotConcStats checks the observability contract: the snapshot
// wrapper reports published versions and has no reader lock to
// report on, the Concurrent wrapper reports reader-wait fields.
func TestSnapshotConcStats(t *testing.T) {
	rel := buildBandedRel(5)
	e := Snapshot(New(SelCrack, cloneRel(rel)))
	for i := int64(0); i < 5; i++ {
		e.Query(Query{
			Preds: []AttrPred{{Attr: "A", Pred: store.Range(i*100, i*100+50)}},
			Projs: []string{"B"},
		})
	}
	if ss, ok := SnapshotStatsOf(e); !ok || ss.Published == 0 {
		t.Fatalf("no snapshots counted after cracking queries (ok=%v)", ok)
	}
	if _, ok := ConcStatsOf(e); ok {
		t.Fatal("lock-free readers report on a reader lock they do not have")
	}
	if _, ok := ConcStatsOf(Concurrent(New(Scan, cloneRel(rel)))); !ok {
		t.Fatal("Concurrent wrapper does not report ConcStats")
	}
}

// keyedRel builds n rows: A uniform in [0, domain), and K, the row's own
// key, so a query projecting K answers with the keys it selects.
func keyedRel(rng *rand.Rand, n int, domain int64) *store.Relation {
	return store.Build("R", n, []string{"A", "K"}, func(attr string, row int) Value {
		if attr == "K" {
			return Value(row)
		}
		return Value(rng.Int63n(domain))
	})
}

// keyModel is the reference of a keyed relation: every live key and its A
// value, updated eagerly.
type keyModel map[Value]Value

func modelOf(rel *store.Relation) keyModel {
	m := keyModel{}
	for k, v := range rel.MustColumn("A").Vals {
		m[Value(k)] = v
	}
	return m
}

// keys returns, sorted, the live keys whose A value matches pred.
func (m keyModel) keys(pred store.Pred) []Value {
	var out []Value
	for k, v := range m {
		if pred.Matches(v) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

func queryK(pred store.Pred) Query {
	return Query{Preds: []AttrPred{{Attr: "A", Pred: pred}}, Projs: []string{"K"}}
}

// answerKeys returns the keys an answer to queryK holds, sorted.
func answerKeys(res Result) []Value {
	keys := slices.Clone(res.Cols["K"])
	slices.Sort(keys)
	return keys
}

// randSnapPred draws a range over [0, domain) with random inclusiveness.
// One in eight reaches down to the value domain's lower edge and one in
// eight up to its upper edge, where the store never cuts.
func randSnapPred(rng *rand.Rand, domain int64) store.Pred {
	lo := rng.Int63n(domain)
	p := store.Pred{Lo: lo, Hi: lo + rng.Int63n(domain-lo+1), LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
	switch rng.Intn(8) {
	case 0:
		p.Lo, p.LoIncl = math.MinInt64, true
	case 1:
		p.Hi, p.HiIncl = math.MaxInt64, true
	}
	return p
}

// checkVersion compares the published version of attr's cracker column
// with the store's key map, which it must equal piece by piece: the same
// cuts, the same keys in each piece and the ledger's pending updates. It
// also checks that every key's value lies between its piece's cuts and
// that pending insertions are sorted by value. For a quiescent engine only:
// reading the key map may align it.
func checkVersion(e *snapEngine, attr string) error {
	v := (*e.cols.Load())[attr]
	if v == nil {
		return fmt.Errorf("no version of %s", attr)
	}
	km, ins, del := e.sc.st.KeyMap(attr)
	head := e.sc.st.Relation().MustColumn(attr).Vals
	var cuts []crackindex.Bound
	var ends []int
	km.Idx.Walk(func(b crackindex.Bound, pos int) {
		cuts = append(cuts, b)
		ends = append(ends, pos)
	})
	ends = append(ends, km.Len())
	if !slices.Equal(v.cuts, cuts) || len(v.pieces) != len(ends) {
		return fmt.Errorf("%d cuts and %d pieces, the key map has %d cuts", len(v.cuts), len(v.pieces), len(cuts))
	}
	lo := 0
	for i, hi := range ends {
		got, want := slices.Clone(v.pieces[i]), slices.Clone(km.Tail[lo:hi])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("piece %d holds %d keys, the key map's %d", i, len(got), len(want))
		}
		for _, k := range got {
			if val := head[k]; i > 0 && valBound(val).Less(v.cuts[i-1]) || i < len(v.cuts) && !valBound(val).Less(v.cuts[i]) {
				return fmt.Errorf("key %d (value %d) lies outside piece %d", k, val, i)
			}
		}
		lo = hi
	}
	if v.n != km.Len() {
		return fmt.Errorf("version counts %d tuples, the key map holds %d", v.n, km.Len())
	}
	gotIns, wantIns := make([]Value, len(v.ins)), make([]Value, len(ins))
	for i, p := range v.ins {
		if p.val != head[p.key] || i > 0 && p.val < v.ins[i-1].val {
			return fmt.Errorf("pending insertion %d (key %d, value %d) has the wrong value or order", i, p.key, p.val)
		}
		gotIns[i] = p.key
	}
	for i, k := range ins {
		wantIns[i] = Value(k)
	}
	slices.Sort(gotIns)
	slices.Sort(wantIns)
	if !slices.Equal(gotIns, wantIns) {
		return fmt.Errorf("pending insertions %v, the ledger's %v", gotIns, wantIns)
	}
	if len(v.del) != len(del) {
		return fmt.Errorf("%d pending deletions, the ledger's %d", len(v.del), len(del))
	}
	for k := range del {
		if !v.del[Value(k)] {
			return fmt.Errorf("pending deletion %d missing", k)
		}
	}
	return nil
}

// TestSnapshotModelEquivalence runs inserts, deletes and selections on
// Snapshot(SelCrack) against a model, reading each selection both
// lock-free (when QueryRO answers) and through Query, and checks after
// every operation that the published version equals the store's key map.
// A burst of updates in the middle pushes the pending backlog past
// maxPending, so the writer merges it. Each policy runs: auxiliary pivots
// must land only in the pieces a publish copies.
func TestSnapshotModelEquivalence(t *testing.T) {
	for _, pol := range []crack.Policy{{}, {Kind: crack.Stochastic, Cap: 64}, {Kind: crack.Capped, Cap: 64}} {
		t.Run(pol.Kind.String(), func(t *testing.T) { testSnapshotModel(t, pol) })
	}
}

func testSnapshotModel(t *testing.T, pol crack.Policy) {
	rng := rand.New(rand.NewSource(11))
	const domain = 500
	rel := keyedRel(rng, 1000, domain)
	m := modelOf(rel)
	live := make([]int, 0, 1000)
	for k := range 1000 {
		live = append(live, k)
	}
	e := Snapshot(NewWith(SelCrack, rel, Options{Policy: pol})).(*snapEngine)
	lockFree, burstInserts := 0, 0
	for op := 0; op < 800; op++ {
		burst := op >= 200 && op < 550
		switch r := rng.Intn(10); {
		case r == 0 || burst && r < 5:
			v := Value(rng.Int63n(domain))
			k := e.Insert(v, Value(rel.NumRows()))
			m[Value(k)] = v
			live = append(live, k)
			if burst {
				burstInserts++
			}
		case r == 1 || burst:
			i := rng.Intn(len(live))
			e.Delete(live[i])
			delete(m, Value(live[i]))
			live = slices.Delete(live, i, i+1)
		default:
			pred := randSnapPred(rng, domain)
			want := m.keys(pred)
			if res, _, ok := e.QueryRO(queryK(pred)); ok {
				lockFree++
				if got := answerKeys(res); !slices.Equal(got, want) {
					t.Fatalf("op %d %v read lock-free: %d keys, want %d", op, pred, len(got), len(want))
				}
			}
			res, _ := e.Query(queryK(pred))
			if got := answerKeys(res); !slices.Equal(got, want) {
				t.Fatalf("op %d %v: %d keys, want %d", op, pred, len(got), len(want))
			}
		}
		if err := checkVersion(e, "A"); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if v := (*e.cols.Load())["A"]; v != nil && (len(v.ins) > maxPending || len(v.del) > maxPending) {
			t.Fatalf("op %d: published %d pending insertions and %d deletions, over the bound %d", op, len(v.ins), len(v.del), maxPending)
		}
	}
	if v := (*e.cols.Load())["A"]; len(v.pieces) < 2 || lockFree == 0 || burstInserts <= maxPending {
		t.Fatalf("the workload exercised too little: %d pieces, %d lock-free answers, %d burst inserts", len(v.pieces), lockFree, burstInserts)
	}
	if k, _ := KernelReportOf(e); pol.Kind != crack.Default && k.Aux == 0 {
		t.Fatal("the policy placed no auxiliary pivot")
	}
}

// TestSnapshotReadsApplyPending: a lock-free read adds the pending
// insertions its predicate matches and drops the pending deletions.
func TestSnapshotReadsApplyPending(t *testing.T) {
	rel := store.NewRelation("R", "A", "K")
	for k, v := range []Value{10, 20, 30, 40} {
		rel.AppendRow(v, Value(k))
	}
	e := Snapshot(New(SelCrack, rel))
	q := queryK(store.Range(15, 45))
	e.Query(q) // establishes the cuts
	e.Insert(25, 4)
	e.Delete(1) // key 1 (value 20) is in a piece: a pending deletion
	res, _, ok := e.QueryRO(q)
	if !ok {
		t.Fatal("QueryRO refused a cracked predicate")
	}
	if got, want := answerKeys(res), []Value{2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("got keys %v, want %v", got, want)
	}
}

// versionSum fingerprints every value a version holds: its cuts, the keys
// of each piece in order, its pending insertions (key and value, in order)
// and its pending deletions (sorted keys, each with its flag).
func versionSum(v *keyVersion) uint64 {
	h := uint64(len(v.cuts))
	for _, b := range v.cuts {
		h = h*31 + uint64(b.V)
		if b.Incl {
			h++
		}
	}
	h = h*31 + uint64(len(v.pieces))
	for _, keys := range v.pieces {
		h = h*31 + uint64(len(keys))
		for _, k := range keys {
			h = h*31 + uint64(k)
		}
	}
	h = h*31 + uint64(len(v.ins))
	for _, p := range v.ins {
		h = (h*31+uint64(p.key))*31 + uint64(p.val)
	}
	dels := make([]Value, 0, len(v.del))
	for k := range v.del {
		dels = append(dels, k)
	}
	slices.Sort(dels)
	h = h*31 + uint64(len(dels))
	for _, k := range dels {
		h = h*31 + uint64(k)
		if v.del[k] {
			h++
		}
	}
	return h
}

// TestSnapshotConcurrentReaders runs lock-free readers over static value
// bands while a writer cracks, inserts and deletes in band 0 and cracks
// fresh ranges in the reader bands. Every reader answer is precomputed: the
// bands never change, though deletions queued in them before the readers
// start are merged into pieces while they read. The writer also checks,
// after every operation, that the version it replaced — the one a slow
// reader may still traverse — holds exactly what it held before: published
// memory is never written. Run with -race as well.
func TestSnapshotConcurrentReaders(t *testing.T) {
	const (
		n     = 4000
		bands = 4
		width = 500
	)
	rng := rand.New(rand.NewSource(23))
	rel := keyedRel(rng, n, bands*width)
	m := modelOf(rel)
	e := Snapshot(New(SelCrack, rel)).(*snapEngine)
	e.Query(queryK(store.Range(0, 1))) // creates the cracker column

	// Queue deletions in the reader bands: pending now, merged into pieces
	// later by the writer's cracks there and by its backlog merges.
	var queued []Value
	for i := 0; i < 60; i++ {
		k := Value(rng.Intn(n))
		if v, ok := m[k]; ok && v >= width {
			e.Delete(int(k))
			delete(m, k)
			queued = append(queued, k)
		}
	}
	type check struct {
		pred store.Pred
		want []Value
	}
	var checks []check
	for b := 1; b < bands; b++ {
		for i := 0; i < 8; i++ {
			lo := Value(b*width) + rng.Int63n(width-100)
			pred := store.Range(lo, lo+1+rng.Int63n(99))
			checks = append(checks, check{pred, m.keys(pred)})
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				ck := checks[rng.Intn(len(checks))]
				res, _ := e.Query(queryK(ck.pred))
				if got := answerKeys(res); !slices.Equal(got, ck.want) {
					t.Errorf("reader %v: got %d keys %v, want %d %v", ck.pred, len(got), got, len(ck.want), ck.want)
					return
				}
			}
		}(int64(100 + r))
	}

	writerRng := rand.New(rand.NewSource(42))
	var mine []int // live keys in band 0
	for k, v := range m {
		if v < width {
			mine = append(mine, int(k))
		}
	}
	slices.Sort(mine)
	for i := 0; i < 400; i++ {
		prev := (*e.cols.Load())["A"]
		sum := versionSum(prev)
		switch writerRng.Intn(5) {
		case 0:
			mine = append(mine, e.Insert(writerRng.Int63n(width), Value(rel.NumRows())))
		case 1:
			if len(mine) > 0 {
				j := writerRng.Intn(len(mine))
				e.Delete(mine[j])
				mine = slices.Delete(mine, j, j+1)
			}
		case 2: // a reader band: merges its pending deletions, changes no answer
			lo := Value((1+writerRng.Intn(bands-1))*width) + writerRng.Int63n(width-100)
			e.Query(queryK(store.Range(lo, lo+1+writerRng.Int63n(99))))
		default:
			lo := writerRng.Int63n(width - 100)
			e.Query(queryK(store.Range(lo, lo+1+writerRng.Int63n(99))))
		}
		if versionSum(prev) != sum {
			t.Errorf("op %d wrote into the version it replaced", i)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := checkVersion(e, "A"); err != nil {
		t.Fatalf("final version: %v", err)
	}
	v := (*e.cols.Load())["A"]
	pending := 0
	for _, k := range queued {
		if v.del[k] {
			pending++
		}
	}
	if pending == len(queued) {
		t.Fatalf("none of the %d deletions queued in the reader bands was merged while they read", len(queued))
	}
}

// copiedTuples counts the tuples of next's pieces that it does not share
// with prev: what publishing next copied out of the key map.
func copiedTuples(prev, next *keyVersion) int {
	shared := make(map[*Value]bool, len(prev.pieces))
	for _, keys := range prev.pieces {
		if len(keys) > 0 {
			shared[&keys[0]] = true
		}
	}
	n := 0
	for _, keys := range next.pieces {
		if len(keys) > 0 && !shared[&keys[0]] {
			n += len(keys)
		}
	}
	return n
}

// piecesAt sums the sizes of v's distinct pieces that the bounds bs fall
// into.
func piecesAt(v *keyVersion, bs ...crackindex.Bound) int {
	seen, n := map[int]bool{}, 0
	for _, b := range bs {
		i := sort.Search(len(v.cuts), func(i int) bool { return b.Less(v.cuts[i]) })
		if !seen[i] {
			seen[i] = true
			n += len(v.pieces[i])
		}
	}
	return n
}

// TestSnapshotPublishCopiesOnlyTouchedPieces counts what a publish copies
// on a converged column: a crack copies no more tuples than the pieces its
// bounds fall into hold, plus the pieces and tuples of the updates it
// merges; an Insert or a Delete that leaves the backlog below maxPending
// copies no piece.
func TestSnapshotPublishCopiesOnlyTouchedPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, domain, width = 100_000, 1_000_000, 1_000
	rel := keyedRel(rng, n, domain)
	e := Snapshot(New(SelCrack, rel)).(*snapEngine)
	fresh := func() store.Pred {
		lo := rng.Int63n(domain - width)
		return store.Range(lo, lo+1+rng.Int63n(width))
	}
	for i := 0; i < 300; i++ {
		e.Query(queryK(fresh()))
	}
	version := func() *keyVersion { return (*e.cols.Load())["A"] }

	cracks := 0
	for i := 0; i < 50; i++ {
		prev, pred := version(), fresh()
		bound := piecesAt(prev, pred.LowerBound(), pred.UpperBound())
		e.Query(queryK(pred))
		if version() == prev {
			continue // both bounds were cuts: answered lock-free
		}
		cracks++
		if got := copiedTuples(prev, version()); got > bound {
			t.Fatalf("crack %d copied %d tuples; its bounds fall into pieces of %d", i, got, bound)
		}
	}
	if cracks < 40 {
		t.Fatalf("only %d of 50 fresh ranges cracked", cracks)
	}

	prev := version()
	val := rng.Int63n(domain - width)
	e.Insert(val, Value(rel.NumRows()))
	if got := copiedTuples(prev, version()); got != 0 {
		t.Fatalf("an insert copied %d tuples", got)
	}
	prev = version()
	e.Delete(7)
	if got := copiedTuples(prev, version()); got != 0 {
		t.Fatalf("a delete copied %d tuples", got)
	}

	// A crack over the insertion merges it (and the deletion, if it falls
	// in the range too): their pieces may be copied as well.
	prev = version()
	pred := store.Range(val-1-rng.Int63n(width), val+1+rng.Int63n(width))
	bound := piecesAt(prev, pred.LowerBound(), pred.UpperBound(), valBound(val), valBound(rel.MustColumn("A").Vals[7])) + 1
	e.Query(queryK(pred))
	if got := copiedTuples(prev, version()); got > bound {
		t.Fatalf("a merging crack copied %d tuples; its bounds and updates fall into pieces of %d", got, bound)
	}
	if v := version(); len(v.ins) != 0 {
		t.Fatalf("the crack left %d insertions pending", len(v.ins))
	}
	if err := checkVersion(e, "A"); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotKeepsKernelCounters wraps a warm SelCrack engine: its kernel
// section reads the same just after wrapping as before, because the
// wrapped engine goes on doing every crack, and a crack after wrapping adds
// to it.
func TestSnapshotKeepsKernelCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := New(SelCrack, buildRel(rng, 20_000, []string{"A", "B"}, 10_000))
	for q := 0; q < 64; q++ {
		lo := rng.Int63n(10_000)
		e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+rng.Int63n(500))}}, Projs: []string{"B"}})
	}
	before, _ := KernelReportOf(e)
	if before.InTwo+before.InThree == 0 || before.Visited == 0 {
		t.Fatalf("the warm-up cracked nothing: %+v", before)
	}
	snap := Snapshot(e)
	if after, ok := KernelReportOf(snap); !ok || after != before {
		t.Fatalf("kernel section %+v just after wrapping, %+v before", after, before)
	}
	snap.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(4_321, 4_322)}}, Projs: []string{"B"}})
	if after, _ := KernelReportOf(snap); after.Visited <= before.Visited || after.Pieces <= before.Pieces {
		t.Fatalf("a crack after wrapping is not counted: %+v after, %+v before", after, before)
	}
}

// TestSnapshotStatsNeverWaitForWriter holds the writer lock, as a cold
// crack does, and requires Report and Storage to return meanwhile: both
// read only what the last write published.
func TestSnapshotStatsNeverWaitForWriter(t *testing.T) {
	e := Snapshot(New(SelCrack, buildBandedRel(7))).(*snapEngine)
	e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(100, 200)}}, Projs: []string{"B"}})
	e.mu.Lock()
	defer e.mu.Unlock()
	done := make(chan int, 1)
	go func() {
		ReportOf(e)
		done <- e.Storage()
	}()
	select {
	case n := <-done:
		if n != nGoroutines*bandRows {
			t.Fatalf("Storage = %d, want %d", n, nGoroutines*bandRows)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Report or Storage waited for the writer lock")
	}
}
