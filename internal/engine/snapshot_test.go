package engine

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

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
// an insert and a delete pending: the snapshot engine keeps the cracked
// layout and both pending updates, and answers what Scan answers.
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
	c := (*snap.(*snapEngine).cols.Load())["A"]
	if c.Pieces() < 2 {
		t.Fatalf("conversion dropped the cracked layout: %d pieces", c.Pieces())
	}
	if c.PendingInsertions() != 1 || c.PendingDeletions() != 1 {
		t.Fatalf("conversion kept %d pending insertions and %d deletions, want 1 and 1", c.PendingInsertions(), c.PendingDeletions())
	}
	if !c.CheckVersion() {
		t.Fatal("converted version violates the piece invariant")
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

// TestSnapshotFallback pins the wrapper contract: SelCrack converts to the
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
