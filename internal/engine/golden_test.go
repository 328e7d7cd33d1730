package engine

import (
	"math/rand"
	"slices"
	"testing"

	"crackstore/internal/partial"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// The physical layout a cracking engine builds is a pure function of its
// query and update stream: every crack the kernel decides, every tuple it
// visits and moves, every boundary it keeps. These golden counts pin that
// layout for fixed streams, so a refactor of the map store or of selection
// cracking that moves any of them fails here rather than in a benchmark run.

const goldenRows = 20000

var goldenAttrs = []string{"A", "B", "C", "D", "E", "F"}

// goldenRel is a uniform relation over [1, goldenRows] on A..F.
func goldenRel() *store.Relation {
	rng := rand.New(rand.NewSource(71))
	return store.Build("R", goldenRows, goldenAttrs, func(string, int) Value {
		return 1 + Value(rng.Int63n(goldenRows))
	})
}

// exploreStream is shaped like the explore-cold workload: the three
// exploration query types in batches of 25, 300 queries.
func exploreStream(e Engine) {
	g := workload.New(goldenRows, 72)
	shapes := []func() Query{
		func() Query { // T1
			return Query{Preds: []AttrPred{{Attr: "A", Pred: g.Range(0.01)}}, Projs: []string{"B", "C"}}
		},
		func() Query { // T2
			return Query{Preds: []AttrPred{{Attr: "A", Pred: g.Range(0.01)}, {Attr: "D", Pred: g.Range(0.5)}}, Projs: []string{"E"}}
		},
		func() Query { // T3
			return Query{Preds: []AttrPred{{Attr: "B", Pred: g.Range(0.01)}}, Projs: []string{"A", "F"}}
		},
	}
	for q := 0; q < 300; q++ {
		e.Query(shapes[workload.BatchCycle(q, 25, len(shapes))]())
	}
}

// churnStream is shaped like the durable-churn workload: rounds of ten
// narrow T1 queries, then ten pairs of a delete of a live tuple and an
// insert.
func churnStream(e Engine) {
	g := workload.New(goldenRows, 73)
	live := make([]int, goldenRows)
	for k := range live {
		live[k] = k
	}
	next := goldenRows
	for round := 0; round < 30; round++ {
		for i := 0; i < 10; i++ {
			e.Query(Query{Preds: []AttrPred{{Attr: "A", Pred: g.Range(0.0005)}}, Projs: []string{"B", "C"}})
		}
		for i := 0; i < 10; i++ {
			j := g.Intn(len(live))
			e.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			vals := make([]Value, len(goldenAttrs))
			for a := range vals {
				vals[a] = g.Value()
			}
			if key := e.Insert(vals...); key != next {
				panic("churn: unexpected insert key")
			}
			live = append(live, next)
			next++
		}
	}
}

// goldenLayout is what the test compares: the kernel counters and index
// sizes, the storage footprint, and on the map-set engines per set the tape
// length (full maps) or the number of fetched areas (partial maps).
type goldenLayout struct {
	Kernel  KernelReport
	Storage int
	Sets    []int // per attribute of goldenAttrs that has a set
}

func layoutOf(e Engine) goldenLayout {
	l := goldenLayout{Kernel: *ReportOf(e).Kernel, Storage: e.Storage()}
	me, ok := e.(*mapEngine)
	if !ok {
		return l
	}
	st := any(me.Store())
	for _, a := range goldenAttrs {
		if e.Kind() == Sideways {
			if set := st.(*sideways.Store).SetIfExists(a); set != nil {
				l.Sets = append(l.Sets, set.TapeLen())
			}
		} else if set := st.(*partial.Store).SetIfExists(a); set != nil {
			l.Sets = append(l.Sets, set.NumAreas())
		}
	}
	return l
}

func TestMapLayoutGolden(t *testing.T) {
	cases := []struct {
		name   string
		kind   Kind
		stream func(Engine)
		want   goldenLayout
	}{
		// Each query type creates its two maps together, as one head group:
		// a map and a tail that follows it, sharing one index.
		{"explore/sideways", Sideways, exploreStream, goldenLayout{
			Kernel:  KernelReport{InTwo: 660, InThree: 136, Visited: 659198, Moved: 417292, Pieces: 935, Columns: 6},
			Storage: 90000, Sets: []int{200, 100},
		}},
		// Its T1 queries' two maps stay one head group across every merged
		// update: one index, and a map and a half of storage.
		{"churn/sideways", Sideways, churnStream, goldenLayout{
			Kernel:  KernelReport{InTwo: 82, InThree: 257, Visited: 262554, Moved: 144828, Pieces: 597, Columns: 2},
			Storage: 29990, Sets: []int{343},
		}},
		{"explore/selcrack", SelCrack, exploreStream, goldenLayout{
			Kernel:  KernelReport{InTwo: 412, InThree: 89, Visited: 430596, Moved: 137460, Pieces: 592, Columns: 2},
			Storage: 40000,
		}},
		// S_A's key map replays the tape of churn/sideways' S_A: the same
		// visits, half the moves and half the pieces of its two maps.
		{"churn/selcrack", SelCrack, churnStream, goldenLayout{
			Kernel:  KernelReport{InTwo: 82, InThree: 257, Visited: 262554, Moved: 72414, Pieces: 597, Columns: 1},
			Storage: 19993,
		}},
		// Its chunks are tails that follow their area's span of H_A: each
		// crack is decided once per area, and the span's index is the one
		// its chunks share.
		{"explore/partial", PartialSideways, exploreStream, goldenLayout{
			Kernel:  KernelReport{InTwo: 598, InThree: 146, Visited: 519031, Moved: 171654, Pieces: 1116, Columns: 590},
			Storage: 39046, Sets: []int{135, 89},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.kind, goldenRel())
			c.stream(e)
			got := layoutOf(e)
			if got.Kernel != c.want.Kernel || got.Storage != c.want.Storage || !slices.Equal(got.Sets, c.want.Sets) {
				t.Fatalf("layout moved:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}
