// Ablation benchmarks for three design choices of the paper: adaptive
// (lazy) vs eager alignment, histogram-driven vs naive map-set choice, and
// partial vs forced-full chunk alignment. Each pair runs the identical
// workload with only the switch flipped.
package crackstore_test

import (
	"math/rand"
	"testing"

	crackstore "crackstore"
	"crackstore/internal/engine"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

func ablationRel(rows, attrs int, seed int64) *store.Relation {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return store.Build("R", rows, names, func(string, int) store.Value {
		return rng.Int63n(int64(rows))
	})
}

// Lazy vs eager alignment: nine maps get created once, then the workload
// hammers a single hot map. With adaptive (lazy) alignment the cold maps
// never pay for the hot map's cracks; with eager ("on-line") alignment —
// the strategy Section 3.2 rejects — every query drags all ten maps
// through every crack.
func benchAlignment(b *testing.B, eager bool) {
	rows := 50000
	projs := []string{"B", "C", "D", "E", "F", "G", "H", "I", "J"}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := sideways.NewStore(ablationRel(rows, 10, 1))
		st.EagerAlignment = eager
		gen := workload.New(int64(rows), 2)
		b.StartTimer()
		// Materialize every map once.
		for _, proj := range projs {
			st.SelectProject("A", gen.Range(0.1), []string{proj})
		}
		// Then only the hot map is queried.
		for q := 0; q < 200; q++ {
			st.SelectProject("A", gen.Range(0.1), []string{"B"})
		}
	}
}

func BenchmarkAblationAlignmentLazy(b *testing.B)  { benchAlignment(b, false) }
func BenchmarkAblationAlignmentEager(b *testing.B) { benchAlignment(b, true) }

// Histogram-driven vs naive map-set choice: the first predicate is very
// unselective, the second very selective. The histogram chooser flips to
// the selective set; the naive chooser builds maps over 90% candidate
// areas.
func benchSetChoice(b *testing.B, naive bool) {
	rows := 50000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := sideways.NewStore(ablationRel(rows, 4, 3))
		st.NaiveSetChoice = naive
		gen := workload.New(int64(rows), 4)
		b.StartTimer()
		for q := 0; q < 100; q++ {
			preds := []sideways.AttrPred{
				{Attr: "A", Pred: gen.Range(0.9)},
				{Attr: "B", Pred: gen.Range(0.02)},
			}
			st.MultiSelect(preds, []string{"C", "D"}, false)
		}
	}
}

func BenchmarkAblationSetChoiceHistogram(b *testing.B) { benchSetChoice(b, false) }
func BenchmarkAblationSetChoiceNaive(b *testing.B)     { benchSetChoice(b, true) }

// Partial vs forced-full chunk alignment: one heavily cracked wide area,
// then a different attribute's chunks repeatedly used as covered chunks.
func benchPartialAlignment(b *testing.B, forceFull bool) {
	rows := 50000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := sideways.NewPartialStore(ablationRel(rows, 6, 5))
		st.ForceFullAlignment = forceFull
		gen := workload.New(int64(rows), 6)
		// Crack one attribute's chunks hard.
		for q := 0; q < 100; q++ {
			st.SelectProject("A", gen.RangeIn(1, int64(rows), 0.05), []string{"B"})
		}
		b.StartTimer()
		// Covered queries over other tails: partial alignment leaves them
		// at low cursors; forced-full replays the whole tape per chunk.
		wide := store.Range(1, int64(rows))
		tails := []string{"C", "D", "E", "F"}
		for q := 0; q < 50; q++ {
			st.SelectProject("A", wide, []string{tails[q%len(tails)]})
		}
	}
}

func BenchmarkAblationPartialAlignment(b *testing.B)   { benchPartialAlignment(b, false) }
func BenchmarkAblationFullChunkAlignment(b *testing.B) { benchPartialAlignment(b, true) }

// Head dropping: storage saved vs recovery cost when the workload comes
// back to crack a head-dropped chunk.
func BenchmarkAblationHeadDropRecovery(b *testing.B) {
	rows := 50000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := sideways.NewPartialStore(ablationRel(rows, 2, 7))
		gen := workload.New(int64(rows), 8)
		for q := 0; q < 50; q++ {
			st.SelectProject("A", gen.Range(0.05), []string{"B"})
		}
		st.DropHead()
		b.StartTimer()
		for q := 0; q < 20; q++ {
			st.SelectProject("A", gen.Range(0.05), []string{"B"})
		}
	}
}

// Reference: the same tail queries without the head drop.
func BenchmarkAblationNoHeadDrop(b *testing.B) {
	rows := 50000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := sideways.NewPartialStore(ablationRel(rows, 2, 7))
		gen := workload.New(int64(rows), 8)
		for q := 0; q < 50; q++ {
			st.SelectProject("A", gen.Range(0.05), []string{"B"})
		}
		b.StartTimer()
		for q := 0; q < 20; q++ {
			st.SelectProject("A", gen.Range(0.05), []string{"B"})
		}
	}
}

// Sanity: the ablation switches must not change results, only costs.
func TestAblationSwitchesPreserveResults(t *testing.T) {
	rows := 5000
	gen := workload.New(int64(rows), 9)
	preds := make([]store.Pred, 40)
	for i := range preds {
		preds[i] = gen.Range(0.1)
	}
	run := func(eager, naive bool) []int {
		st := sideways.NewStore(ablationRel(rows, 4, 10))
		st.EagerAlignment = eager
		st.NaiveSetChoice = naive
		var ns []int
		for _, p := range preds {
			res := st.MultiSelect([]sideways.AttrPred{
				{Attr: "A", Pred: p},
				{Attr: "B", Pred: store.Range(0, int64(rows/2))},
			}, []string{"C"}, false)
			ns = append(ns, res.N)
		}
		return ns
	}
	base := run(false, false)
	for _, mode := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		got := run(mode[0], mode[1])
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("ablation %v changed result %d: %d vs %d", mode, i, got[i], base[i])
			}
		}
	}
	// Partial: forced-full alignment must match partial alignment.
	runP := func(force bool) []int {
		st := sideways.NewPartialStore(ablationRel(rows, 3, 11))
		st.ForceFullAlignment = force
		var ns []int
		for _, p := range preds {
			res := st.SelectProject("A", p, []string{"B", "C"})
			ns = append(ns, res.N)
		}
		return ns
	}
	pa, pb := runP(false), runP(true)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("ForceFullAlignment changed result %d: %d vs %d", i, pa[i], pb[i])
		}
	}
	_ = crackstore.Sideways
	_ = engine.Scan
}
