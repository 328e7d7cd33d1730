// Head-dropping benchmarks (Section 4.1): the recovery cost a workload pays
// when it comes back to crack a chunk whose head was dropped, against the
// same queries with the head kept. Both use the store's real DropHead API.
package crackstore_test

import (
	"math/rand"
	"testing"

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

// benchHeadDrop cracks a chunk, drops its head when drop is set, and times
// the queries that come back to crack it.
func benchHeadDrop(b *testing.B, drop bool) {
	rows := 50000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := sideways.NewPartialStore(ablationRel(rows, 2, 7))
		gen := workload.New(int64(rows), 8)
		for q := 0; q < 50; q++ {
			st.SelectProject("A", gen.Range(0.05), []string{"B"})
		}
		if drop {
			st.DropHead()
		}
		b.StartTimer()
		for q := 0; q < 20; q++ {
			st.SelectProject("A", gen.Range(0.05), []string{"B"})
		}
	}
}

func BenchmarkAblationHeadDropRecovery(b *testing.B) { benchHeadDrop(b, true) }
func BenchmarkAblationNoHeadDrop(b *testing.B)       { benchHeadDrop(b, false) }
