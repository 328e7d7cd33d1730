package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// warmEngine builds a Concurrent sideways engine over rows random tuples
// and runs the returned query pool once, so every pool query afterwards
// hits the reorganization-free path.
func warmEngine(rows int, sel float64) (Engine, []Query) {
	rng := rand.New(rand.NewSource(1))
	rel := store.Build("R", rows, []string{"A", "B"}, func(string, int) Value {
		return rng.Int63n(int64(rows)) + 1
	})
	e := Concurrent(New(Sideways, rel))
	gen := workload.New(int64(rows), 2)
	pool := make([]Query, 64)
	for i := range pool {
		pool[i] = Query{Preds: []AttrPred{{Attr: "A", Pred: gen.Range(sel)}}, Projs: []string{"B"}}
	}
	for _, q := range pool {
		e.Query(q)
	}
	return e, pool
}

// BenchmarkWarmQuery runs an aligned repeat workload through the
// probe/execute Concurrent wrapper across client counts. With >1 CPU the
// numbers scale with cores; the wrapper's overhead over the bare engine is
// gated by benchmark/'s engine.concurrent.self_ns row.
func BenchmarkWarmQuery(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("concurrent/clients=%d", clients), func(b *testing.B) {
			e, pool := warmEngine(100_000, 0.01)
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / clients
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						e.Query(pool[(g+i)%len(pool)])
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
