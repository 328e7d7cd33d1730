package engine

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"

	"crackstore/internal/obs"
	"crackstore/internal/store"
)

// cycleQuery draws query q of the Fig 9 cycle over attributes A..F: five
// types A∈1% ∧ X∈50% → Y, in batches of 100.
func cycleQuery(rng *rand.Rand, q, domain int) Query {
	types := [][2]string{{"B", "C"}, {"C", "D"}, {"D", "E"}, {"E", "F"}, {"F", "B"}}
	typ := types[q/100%len(types)]
	lo, xlo := Value(rng.Intn(domain-domain/100)), Value(rng.Intn(domain/2))
	return Query{
		Preds: []AttrPred{
			{Attr: "A", Pred: store.Range(lo, lo+Value(domain/100))},
			{Attr: typ[0], Pred: store.Range(xlo, xlo+Value(domain/2))},
		},
		Projs: []string{typ[1]},
	}
}

// TestRecycledBuffersNeverAliasAnswers keeps every answer of a 2,000-query
// budgeted stream — updates between batches, two goroutines
// re-asking recent queries beside the writer — and compares them all with
// the scan oracle once the stream is over. Chunks are cracked, rippled and
// evicted meanwhile, so an answer that shared memory with a chunk would
// have changed by then.
func TestRecycledBuffersNeverAliasAnswers(t *testing.T) {
	const rows, batches, perBatch = 10000, 20, 100
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	rng := rand.New(rand.NewSource(23))
	rel := buildRel(rng, rows, attrs, rows)
	e := Concurrent(NewWith(PartialSideways, cloneRel(rel), Options{Budget: 3 * rows}))

	type asked struct {
		q       Query
		answers [3]Result // the writer's, then one per echoing goroutine
	}
	type update struct {
		vals []Value
		del  int
	}
	kept := make([][]asked, batches) // per batch: the oracle's state differs
	updates := make([][]update, batches)
	for b := range kept {
		kept[b] = make([]asked, perBatch)
		for i := range kept[b] {
			kept[b][i].q = cycleQuery(rng, b*perBatch+i, rows)
		}
		var echo [2]chan int
		var wg sync.WaitGroup
		for r := range echo {
			echo[r] = make(chan int, perBatch) // one send per query: never blocks
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := range echo[r] {
					kept[b][i].answers[1+r], _ = e.Query(kept[b][i].q)
				}
			}(r)
		}
		for i := range kept[b] {
			kept[b][i].answers[0], _ = e.Query(kept[b][i].q)
			echo[0] <- i
			echo[1] <- i
		}
		close(echo[0])
		close(echo[1])
		wg.Wait()
		for u := 0; u < 3; u++ {
			up := update{vals: make([]Value, len(attrs)), del: rng.Intn(rows)}
			for i := range up.vals {
				up.vals[i] = Value(rng.Intn(rows))
			}
			e.Insert(up.vals...)
			e.Delete(up.del)
			updates[b] = append(updates[b], up)
		}
	}

	cs := ReportOf(e).Chunks
	if cs == nil || cs.Evicted == 0 {
		t.Fatalf("the stream evicted no chunk: %+v", cs)
	}
	oracle := NewScan(cloneRel(rel))
	for b := range kept {
		for i, a := range kept[b] {
			res, _ := oracle.Query(a.q)
			want := canonRows(res, a.q.Projs)
			for r, got := range a.answers {
				checkResult(t, fmt.Sprintf("batch %d query %d answer %d %+v", b, i, r, a.q), got, a.q.Projs, want)
			}
		}
		for _, up := range updates[b] {
			oracle.Insert(up.vals...)
			oracle.Delete(up.del)
		}
	}
}

// TestChunkLifecycleMetrics: a budgeted partial engine exposes the three
// chunk lifecycle families, all off zero after a cycle stream whose chunks,
// tails of half a map's cost, want more than its budget of 1.5 times the
// rows; an engine without partial maps registers none of them.
func TestChunkLifecycleMetrics(t *testing.T) {
	const rows = 20000
	rng := rand.New(rand.NewSource(29))
	rel := buildRel(rng, rows, []string{"A", "B", "C", "D", "E", "F"}, rows)
	e := Concurrent(NewPartialWithBudget(cloneRel(rel), 3*rows/2))
	reg := obs.NewRegistry()
	RegisterMetrics(reg, e)
	for q := 0; q < 1000; q++ {
		e.Query(cycleQuery(rng, q, rows))
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"crack_partial_chunks_created_total",
		"crack_partial_chunk_tuples_created_total",
		"crack_partial_chunks_evicted_total",
	} {
		if !regexp.MustCompile(`(?m)^` + fam + ` [1-9]`).MatchString(b.String()) {
			t.Errorf("family %s missing or zero after a budgeted cycle stream", fam)
		}
	}

	full := obs.NewRegistry()
	RegisterMetrics(full, New(Sideways, cloneRel(rel)))
	for _, fam := range full.Families() {
		if strings.HasPrefix(fam, "crack_partial_") {
			t.Errorf("a full-map engine registered %s", fam)
		}
	}
}

// TestBudgetPinsEveryMapTheQueryReads: making room for a query's new chunk
// never evicts a chunk the same query reads next. The query lists its
// missing tail B before its existing tail C, the lowest-priority chunk in the
// store; the one victim must be D, which the query does not read, and C is
// neither evicted nor rebuilt.
func TestBudgetPinsEveryMapTheQueryReads(t *testing.T) {
	const rows = 1000
	rel := store.Build("R", rows, []string{"A", "B", "C", "D"}, func(attr string, row int) Value {
		if attr == "A" {
			return Value(row)
		}
		return Value(row * 7 % rows)
	})
	oracle := NewScan(cloneRel(rel))
	// One area of exactly 100 tuples; the budget holds two chunks of it,
	// tails of 50 tuples' cost each.
	e := NewWith(PartialSideways, rel, Options{Budget: 100})
	ask := func(projs ...string) {
		t.Helper()
		q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(100, 200)}}, Projs: projs}
		want, _ := oracle.Query(q)
		got, _ := e.Query(q)
		checkResult(t, fmt.Sprint(projs), got, projs, canonRows(want, projs))
	}
	ask("C")
	for i := 0; i < 3; i++ {
		ask("D")
	}
	before := *ReportOf(e).Chunks
	ask("B", "C")
	after := *ReportOf(e).Chunks
	if created, evicted := after.Created-before.Created, after.Evicted-before.Evicted; created != 1 || evicted != 1 {
		t.Fatalf("a query reading a new B and a cold C created %d chunks and evicted %d, want 1 and 1 (D only)", created, evicted)
	}
}

// TestDisjunctionReadsOnlyItsTails: a disjunction answers like Scan on both
// presets, merging an insert and a delete on the way, and materializes one
// map (or set of chunks) per tail of its plan: never one whose tail is the
// head attribute, which it tests by value on the maps' head.
func TestDisjunctionReadsOnlyItsTails(t *testing.T) {
	const rows = 2000
	rel := buildRel(rand.New(rand.NewSource(31)), rows, []string{"A", "B", "C"}, rows)
	disj := Query{Disjunctive: true, Projs: []string{"C"}, Preds: []AttrPred{
		{Attr: "A", Pred: store.Range(100, 300)},
		{Attr: "B", Pred: store.Range(0, 1500)},
	}}
	for _, kind := range []Kind{Sideways, PartialSideways} {
		oracle, e := NewScan(cloneRel(rel)), New(kind, cloneRel(rel))
		// Set S_B materializes with a map of A before the updates.
		conj := Query{Preds: []AttrPred{{Attr: "B", Pred: store.Range(0, 1500)}}, Projs: []string{"A"}}
		for _, x := range []Engine{oracle, e} {
			x.Query(conj)
			x.Insert(150, 10, 7)
			x.Delete(5)
		}
		want, _ := oracle.Query(disj)
		got, _ := e.Query(disj)
		checkResult(t, fmt.Sprint(kind), got, disj.Projs, canonRows(want, disj.Projs))
		// The least selective predicate's set S_B answers; its plan reads
		// A and C, whole: two full maps, each a head group of its own; or
		// in each area, both of which an update reached, the span's own
		// columns and two tails, which round up on the two areas of odd
		// length (1,505 and 495 tuples).
		tuples := map[Kind]int{Sideways: 2 * rows, PartialSideways: 2*rows + 2}[kind]
		if n := e.Storage(); n != tuples {
			t.Errorf("%v: a disjunction over S_B reading A and C left %d map tuples, want %d", kind, n, tuples)
		}
	}
}
